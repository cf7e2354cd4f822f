(** PEBR — pointer- and epoch-based reclamation (Kang & Jung, PLDI 2020),
    simplified (see DESIGN.md §2.4).

    Epoch-based like EBR, but robust: when lagging readers block the epoch
    past a patience threshold, the reclaimer {e ejects} them.  An ejected
    reader abandons its operation and restarts it from scratch — the
    coarse-grained recovery that, like NBR's, starves long-running
    operations (Figures 1, 6).  PEBR additionally pays per-node protection
    costs during traversal (its shields must be ready to take over when
    ejection strikes), which the paper's Table 2 scores as full per-node
    overhead.

    Substitution note: real PEBR's ejection uses a fence-free protocol
    between traverser and reclaimer; we reuse the repository's signal
    handshake ({!Hpbrcu_runtime.Signal}) to deliver ejections, and the
    ejected reader restarts rather than falling back to hazard-pointer
    mode.  Both the footprint bound and the restart-induced starvation —
    the properties the paper measures — are preserved.

    The domain carries its own epoch (global, participants, orphans) next
    to an embedded {!Hp_core.domain} for shields; deferral is intrusive
    ({!Hpbrcu_core.Retired.entry} vectors, no per-retire closure), and
    ejection signals are routed by domain id. *)

module Alloc = Hpbrcu_alloc.Alloc
module Block = Hpbrcu_alloc.Block
module Sched = Hpbrcu_runtime.Sched
module Signal = Hpbrcu_runtime.Signal
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
open Hpbrcu_core
module Dom = Smr_intf.Dom
module HPC = Hp_core

module Impl : Smr_intf.SCHEME = struct
  let scheme = "PEBR"

  let caps (cfg : Config.t) : Caps.t =
    {
      name = "PEBR";
      robust_stalled = true;
      robust_longrun = true;
      per_node = ProtectAndValidate;
      starvation = Coarse;
      supports = Caps.supports_optimistic;
      (* Ejection keeps the epoch moving, so queued tasks expire within
         two epochs once the patience threshold passes; a crashed reader
         leaks its local batch and is quarantined. *)
      bound =
        (fun ~nthreads ->
          Some
            (nthreads * cfg.Config.batch
            * (cfg.Config.pebr_eject_threshold + 2)
            * 2));
    }

  exception Restart

  type local = {
    pin : int Atomic.t;
    box : Signal.box;
    _pad : int array;  (* live inter-record spacer; see Hpbrcu_runtime.Layout *)
  }

  type domain = {
    meta : Dom.t;
    hp : HPC.domain;
    global : int Atomic.t;
    participants : local Registry.Participants.t;
    orphans : Retired.entry Segstack.t;
        (* unexpired entries of departed threads, adopted later *)
    (* Worst (global - lagging pin) gap at an advance attempt; ejection
       bounds it by the patience threshold. *)
    lag_gauge : Stats.Gauge.t;
    ejections : Stats.Counter.t;
    restarts : Stats.Counter.t;
    advances : Stats.Counter.t;
    signal_timeouts : Stats.Counter.t;
    quarantines : Stats.Counter.t;
    batch_n : int;
    eject_threshold : int;
  }

  let create ?label config =
    let meta = Dom.make ~scheme ?label config in
    {
      meta;
      hp = HPC.create meta;
      global = Atomic.make 2;
      participants = Registry.Participants.create ();
      orphans = Segstack.create ();
      lag_gauge = Stats.Gauge.make ();
      ejections = Stats.Counter.make ();
      restarts = Stats.Counter.make ();
      advances = Stats.Counter.make ();
      signal_timeouts = Stats.Counter.make ();
      quarantines = Stats.Counter.make ();
      batch_n = config.Config.batch;
      eject_threshold = config.Config.pebr_eject_threshold;
    }

  let dom d = d.meta

  let destroy ?force d =
    Dom.begin_destroy ?force d.meta;
    begin
      (* No readers remain: run everything. *)
      (match Segstack.take_all d.orphans with
      | None -> ()
      | Some _ as chain -> Segstack.iter chain Retired.reclaim_entry);
      HPC.drain d.hp;
      Registry.Participants.reset d.participants;
      Dom.finish_destroy d.meta
    end

  type handle = {
    d : domain;
    l : local;
    idx : int;
    hph : HPC.handle;
    mutable nest : int;
    tasks : Retired.entry Vec.t;
    expired : Retired.entry Vec.t;  (* scratch for [run_expired] *)
    mutable running : bool;  (* reentrancy guard: tasks may retire *)
    mutable push_cnt : int;
  }

  let register d =
    Dom.on_register d.meta;
    let l =
      {
        pin = Atomic.make (-1);
        box = Signal.make ();
        _pad = Hpbrcu_runtime.Layout.spacer ();
      }
    in
    Signal.attach ~domain:(Dom.id d.meta) l.box;
    let idx = Registry.Participants.add d.participants l in
    {
      d;
      l;
      idx;
      hph = HPC.register ~hop_ring:true d.hp;
      nest = 0;
      tasks = Vec.create (Epoch_core.dummy_entry ());
      expired = Vec.create (Epoch_core.dummy_entry ());
      running = false;
      push_cnt = 0;
    }

  type shield = HPC.shield

  let new_shield h = HPC.new_shield h.hph
  let protect = HPC.protect
  let clear = HPC.clear

  (* Ejection is delivered like a signal; the handler aborts the victim's
     operation. *)
  let handler l () = if Atomic.get l.pin <> -1 then raise Restart

  (* [deliverable] first: the no-signal poll allocates no closure. *)
  let poll h =
    if Signal.deliverable h.l.box then
      Signal.poll h.l.box ~handler:(handler h.l)

  let pin h =
    if h.nest = 0 then Atomic.set h.l.pin (Atomic.get h.d.global);
    h.nest <- h.nest + 1

  let unpin h =
    h.nest <- h.nest - 1;
    if h.nest = 0 then Atomic.set h.l.pin (-1)

  let op h body =
    let rec go () =
      pin h;
      Trace.emit Trace.Cs_begin (Atomic.get h.l.pin);
      match body () with
      | r ->
          unpin h;
          Trace.emit Trace.Cs_end 0;
          r
      | exception Restart ->
          unpin h;
          Stats.Counter.incr h.d.restarts;
          (* The ejection that raised Restart was consumed by poll; cite
             its send-sequence id so the analyzer can join the edge. *)
          Trace.emit2 Trace.Rollback 0 (Signal.consumed_seq h.l.box);
          Trace.emit Trace.Cs_end 1;
          Sched.yield ();
          go ()
      | exception e ->
          unpin h;
          Trace.emit Trace.Cs_end 2;
          raise e
    in
    go ()

  let crit h body =
    let outer = h.nest = 0 in
    pin h;
    if outer then Trace.emit Trace.Cs_begin (Atomic.get h.l.pin);
    Fun.protect
      ~finally:(fun () ->
        unpin h;
        if outer then Trace.emit Trace.Cs_end 0)
      body

  let mask _ body = body ()

  (* Per-node protection into the handle's hop ring (no validation
     needed while pinned), plus the ejection poll. *)
  let read h ~src ~hdr cell =
    Sched.yield ();
    poll h;
    Alloc.check_access src;
    let l = Link.get cell in
    let s = HPC.next_hop h.hph in
    (match l with
    | Link.Null _ -> HPC.protect s Block.none
    | Link.Ptr { target; _ } -> HPC.protect s (hdr target));
    l

  let deref h blk =
    poll h;
    Alloc.check_access blk

  let adopt_orphans h =
    match Segstack.take_all h.d.orphans with
    | None -> ()
    | Some _ as chain -> Segstack.iter chain (fun t -> Vec.push h.tasks t)

  let run_expired h =
    adopt_orphans h;
    if not h.running then begin
      h.running <- true;
      let limit = Atomic.get h.d.global - 2 in
      Vec.clear h.expired;
      Vec.partition_into h.tasks
        (fun (e : Retired.entry) -> e.stamp <= limit)
        h.expired;
      (try Vec.iter h.expired Retired.reclaim_entry
       with e ->
         h.running <- false;
         raise e);
      h.running <- false
    end

  (* Advance with ejection: lagging readers other than ourselves are
     ejected once the patience threshold passes.  (Never self: retirement
     must complete once the node is unlinked.) *)
  let try_advance h =
    let d = h.d in
    let e = Atomic.get d.global in
    let lagging = ref [] in
    Registry.Participants.iter d.participants (fun l ->
        let p = Atomic.get l.pin in
        if p <> -1 && p < e then Stats.Gauge.observe d.lag_gauge (e - p);
        if p <> -1 && p < e && l != h.l then lagging := l :: !lagging);
    let self_lags =
      let p = Atomic.get h.l.pin in
      p <> -1 && p < e
    in
    h.push_cnt <- h.push_cnt + 1;
    if !lagging <> [] && h.push_cnt < d.eject_threshold then ()
    else begin
      (* Every ejection must be confirmed before the epoch may advance: a
         dropped ejection with an advance on top would reclaim under a
         still-pinned reader.  [Dead_receiver] quarantines the crashed
         participant (its frozen pin stops blocking — it never reads
         again); [No_ack] vetoes this round's advance. *)
      let all_ejected = ref true in
      List.iter
        (fun l ->
          Stats.Counter.incr d.ejections;
          let seq = Signal.next_seq () in
          Trace.emit2 Trace.Signal_sent l.box.Signal.owner_tid seq;
          match
            Signal.send ~seq ~domain:(Dom.id d.meta) l.box ~is_out:(fun () ->
                let p = Atomic.get l.pin in
                p = -1 || p >= e)
          with
          | Signal.Delivered -> ()
          | Signal.Dead_receiver ->
              Stats.Counter.incr d.quarantines;
              Trace.emit Trace.Participant_quarantined l.box.Signal.owner_tid;
              Registry.Participants.remove_where d.participants (fun l' ->
                  l' == l)
          | Signal.No_ack ->
              Stats.Counter.incr d.signal_timeouts;
              all_ejected := false)
        !lagging;
      h.push_cnt <- 0;
      if (not self_lags) && !all_ejected then
        if Atomic.compare_and_set d.global e (e + 1) then begin
          Stats.Counter.incr d.advances;
          Trace.emit Trace.Epoch_advance (e + 1)
        end
    end;
    run_expired h

  let retire h ?free ?patch:_ ?(claimed = false) blk =
    if not claimed then Alloc.retire blk;
    Dom.tag_retire h.d.meta blk;
    Vec.push h.tasks
      { Retired.blk; free; stamp = Atomic.get h.d.global; patches = [] };
    if Vec.length h.tasks >= h.d.batch_n then try_advance h

  let recycles = false
  let current_era _ = 0

  let flush h = try_advance h

  let unregister h =
    assert (h.nest = 0);
    Signal.detach h.l.box;
    try_advance h;
    (* Remaining tasks are not yet expired; orphan them for adoption. *)
    Segstack.push_arr h.d.orphans (Vec.to_array h.tasks);
    Vec.clear h.tasks;
    HPC.unregister h.hph;
    Registry.Participants.remove h.d.participants h.idx;
    Dom.on_unregister h.d.meta

  let traverse _ ~hold ~prot ~backup:_ w =
    Scheme_common.plain_traverse ~hold ~prot w

  let stats d =
    Dom.stamp_stats d.meta
      {
        Stats.empty with
        epoch = Atomic.get d.global;
        advances = Stats.Counter.value d.advances;
        ejections = Stats.Counter.value d.ejections;
        restarts = Stats.Counter.value d.restarts;
        signal_timeouts = Stats.Counter.value d.signal_timeouts;
        quarantines = Stats.Counter.value d.quarantines;
        max_epoch_lag = Stats.Gauge.maximum d.lag_gauge;
        max_signals_inflight = Signal.max_inflight ();
      }
end
