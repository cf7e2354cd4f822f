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

    The epoch half is an {!Epoch_core} domain whose participant records
    carry the ejection signal box; PEBR adds only its ejecting advance,
    [op]'s restart loop and its counters.  An embedded {!Hp_core.domain}
    holds the shields [read] protects into.  Deferral is intrusive (the
    retired blocks themselves, queued in reusable vectors: nothing is
    allocated per retire), and ejection signals are routed by domain
    id. *)

module Alloc = Hpbrcu_alloc.Alloc
module Block = Hpbrcu_alloc.Block
module Sched = Hpbrcu_runtime.Sched
module Signal = Hpbrcu_runtime.Signal
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
open Hpbrcu_core
module Dom = Smr_intf.Dom
module E = Epoch_core
module HPC = Hp_core

(* Failed advances tolerated before a lagging reader is ejected. *)
let eject_threshold = 2

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
          Some (nthreads * cfg.Config.batch * (eject_threshold + 2) * 2));
    }

  exception Restart

  type domain = {
    ed : Signal.box E.domain;  (* participants carry their ejection box *)
    hp : HPC.domain;
    neut : Scheme_common.neutralizer;  (* [sent] counts ejections *)
    restarts : Stats.Counter.t;
  }

  let create ?label config =
    let meta = Dom.make ~scheme ?label config in
    {
      ed = E.create meta;
      hp = HPC.create meta;
      neut = Scheme_common.neutralizer meta;
      restarts = Stats.Counter.make ();
    }

  let dom d = d.ed.E.meta

  let destroy ?force d =
    Dom.begin_destroy ?force (dom d);
    begin
      (* No readers remain: run everything. *)
      E.drain d.ed;
      HPC.drain d.hp;
      Dom.finish_destroy (dom d)
    end

  type handle = {
    d : domain;
    eh : Signal.box E.handle;
    box : Signal.box;  (* [eh]'s box, one load closer to every poll *)
    hph : HPC.handle;
    mutable push_cnt : int;
  }

  let register d =
    Dom.on_register (dom d);
    let box = Signal.make () in
    Signal.attach ~domain:(Dom.id (dom d)) box;
    let eh = E.register d.ed box in
    { d; eh; box; hph = HPC.register ~hop_ring:true d.hp; push_cnt = 0 }

  type shield = HPC.shield

  let new_shield h = HPC.new_shield h.hph
  let protect = HPC.protect
  let clear = HPC.clear

  (* Ejection is delivered like a signal; the handler aborts the victim's
     operation. *)
  let handler (l : _ E.local) () = if Atomic.get l.pin <> -1 then raise Restart

  (* [deliverable] first: the no-signal poll allocates no closure. *)
  let poll h =
    if Signal.deliverable h.box then
      Signal.poll h.box ~handler:(handler h.eh.E.l)

  (* An ejected operation restarts from scratch.  Its rollback is traced
     before the section's [Cs_end 1]. *)
  (* A restart re-enters the operation by a tail call, so [op] builds no
     retry closure per call. *)
  let rec op h body =
    let eh = h.eh in
    E.pin eh;
    match body () with
    | r ->
        E.unpin eh;
        r
    | exception Restart ->
        Stats.Counter.incr h.d.restarts;
        (* The ejection that raised Restart was consumed by poll; cite
           its send-sequence id so the analyzer can join the edge. *)
        Trace.emit2 Trace.Rollback 0 (Signal.consumed_seq h.box);
        E.unpin_as eh 1;
        Sched.yield ();
        op h body
    | exception e ->
        E.unpin_as eh 2;
        raise e

  let crit h body = E.crit h.eh body
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

  (* Advance with ejection: lagging readers other than ourselves are
     ejected once the patience threshold passes.  (Never self: retirement
     must complete once the node is unlinked.)  Then collect. *)
  let try_advance h =
    let ed = h.d.ed and me = h.eh.E.l in
    let e = E.epoch ed in
    let lagging = ref [] in
    Registry.Participants.iter ed.E.participants (fun l ->
        let p = Atomic.get l.E.pin in
        if p <> -1 && p < e then Stats.Gauge.observe ed.E.lag_gauge (e - p);
        if p <> -1 && p < e && l != me then lagging := l :: !lagging);
    let self_lags =
      let p = Atomic.get me.E.pin in
      p <> -1 && p < e
    in
    h.push_cnt <- h.push_cnt + 1;
    if !lagging <> [] && h.push_cnt < eject_threshold then ()
    else begin
      (* Every ejection must be confirmed before the epoch may advance: a
         dropped ejection with an advance on top would reclaim under a
         still-pinned reader.  [Dead_receiver] quarantines the crashed
         participant (its frozen pin stops blocking — it never reads
         again); [No_ack] vetoes this round's advance. *)
      let all_ejected = ref true in
      List.iter
        (fun (l : _ E.local) ->
          if
            not
              (Scheme_common.neutralize h.d.neut ed.E.participants l l.ext
                 ~is_out:(fun () ->
                   let p = Atomic.get l.pin in
                   p = -1 || p >= e))
          then all_ejected := false)
        !lagging;
      h.push_cnt <- 0;
      if (not self_lags) && !all_ejected then E.advance_from ed e
    end;
    E.adopt_orphans h.eh;
    ignore (E.run_expired h.eh : int)

  let retire h ?patch:_ ?(claimed = false) blk =
    if not claimed then Alloc.retire blk;
    Dom.tag_retire (dom h.d) blk;
    if E.push h.eh blk then try_advance h

  let recycles = false
  let patches = false
  let current_era _ = 0

  let flush h = try_advance h

  let unregister h =
    Signal.detach h.box;
    try_advance h;
    (* Remaining tasks are not yet expired; orphan them for adoption. *)
    E.leave h.eh;
    HPC.unregister h.hph;
    Dom.on_unregister (dom h.d)

  let traverse _ ~hold ~prot ~backup:_ w =
    Scheme_common.plain_traverse ~hold ~prot w

  let stats d =
    Dom.stamp_stats (dom d)
      {
        (E.stats d.ed) with
        ejections = Stats.Counter.value d.neut.sent;
        restarts = Stats.Counter.value d.restarts;
        signal_timeouts = Stats.Counter.value d.neut.timeouts;
        quarantines = Stats.Counter.value d.neut.quarantines;
        max_signals_inflight = Signal.max_inflight ();
      }
end
