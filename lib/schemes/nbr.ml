(** NBR(+) — neutralization-based reclamation (Singh et al., PPoPP 2021),
    the paper's main signal-based competitor (§2.3).

    Operations on access-aware data structures alternate a {e read phase}
    (a critical section: bare loads, no per-node protection, reads rooted
    at entry points) and a {e write phase} (operating on HP-protected
    pointers).  When a reclaimer's batch fills, it neutralizes {b every}
    other thread — the indiscriminate signaling that BRCU's selective
    policy improves on — after which all pre-batch retired blocks that are
    not shield-protected are reclaimable.

    A neutralized read phase restarts {e from the entry point}: there is no
    checkpoint to resume from, which is exactly why NBR starves on
    long-running operations once the operation length exceeds the
    neutralization period (Figures 1 and 6).

    NBR cannot run data structures that perform helping writes during
    traversal (HMList, SkipList — Table 1): a write inside the read phase
    would not be rollback-safe.  The data-structure functors honour this
    via {!Caps.supports_nbr}.

    A {!Config.large_batch} domain is the paper's NBR-Large: an 8192-retirement
    batch that trades footprint for fewer signals ({!Impl.caps} picks the
    name from the batch size).

    The domain embeds an {!Hp_core.domain} (same {!Smr_intf.Dom.t}
    identity) for shields and the reclamation scan, plus the participant
    registry and signal counters.  Neutralization signals carry the
    domain id, so one NBR domain's storm never pages readers of
    another. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Signal = Hpbrcu_runtime.Signal
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
open Hpbrcu_core
module Dom = Smr_intf.Dom
module Core = Hp_core

exception Rollback

module Impl : Smr_intf.SCHEME = struct
  let scheme = "NBR"

  let caps (cfg : Config.t) : Caps.t =
    {
      name = (if cfg.Config.batch >= 1024 then "NBR-Large" else "NBR");
      robust_stalled = true;
      robust_longrun = true;
      per_node = NoOverhead;
      starvation = Coarse;
      supports = Caps.supports_nbr;
      (* Per thread: the pending snapshot plus the HP-core batch, each at
         most [batch] before a neutralization round fires; a crashed
         reader leaks at most that plus its shields. *)
      bound =
        (fun ~nthreads ->
          Some (nthreads * ((cfg.Config.batch * 2) + 64) * 2));
    }

  type local = {
    status : int Atomic.t;
    box : Signal.box;
    _pad : int array;  (* live inter-record spacer; see Hpbrcu_runtime.Layout *)
  }

  let st_out = 0
  let st_incs = 1

  type domain = {
    meta : Dom.t;
    hp : Core.domain;
    participants : local Registry.Participants.t;
    neutralizations : Stats.Counter.t;
    signals : Stats.Counter.t;
    rollbacks : Stats.Counter.t;
    signal_timeouts : Stats.Counter.t;
    quarantines : Stats.Counter.t;
    batch_n : int;
  }

  let create ?label config =
    let meta = Dom.make ~scheme ?label config in
    {
      meta;
      hp = Core.create meta;
      participants = Registry.Participants.create ();
      neutralizations = Stats.Counter.make ();
      signals = Stats.Counter.make ();
      rollbacks = Stats.Counter.make ();
      signal_timeouts = Stats.Counter.make ();
      quarantines = Stats.Counter.make ();
      batch_n = config.Config.batch;
    }

  let dom d = d.meta

  let destroy ?force d =
    Dom.begin_destroy ?force d.meta;
    begin
      Core.drain d.hp;
      Registry.Participants.reset d.participants;
      Dom.finish_destroy d.meta
    end

  type handle = {
    d : domain;
    l : local;
    idx : int;
    hph : Core.handle;
    mutable pending : Retired.t;
  }

  let register d =
    Dom.on_register d.meta;
    let l =
      {
        status = Atomic.make st_out;
        box = Signal.make ();
        _pad = Hpbrcu_runtime.Layout.spacer ();
      }
    in
    Signal.attach ~domain:(Dom.id d.meta) l.box;
    let idx = Registry.Participants.add d.participants l in
    { d; l; idx; hph = Core.register d.hp; pending = Retired.create () }

  type shield = Core.shield

  let new_shield h = Core.new_shield h.hph
  let protect = Core.protect
  let clear = Core.clear

  exception Restart

  let handler l () = if Atomic.get l.status = st_incs then raise Rollback

  (* [deliverable] first: the no-signal poll allocates no closure. *)
  let poll h =
    if Signal.deliverable h.l.box then
      Signal.poll h.l.box ~handler:(handler h.l)

  let op _ body =
    let rec go () = try body () with Restart -> go () in
    go ()

  (* Read phase.  A rollback restarts the body from scratch — NBR's
     coarse-grained recovery. *)
  let crit h body =
    let l = h.l in
    let rec go () =
      Signal.consume_quietly l.box;
      Atomic.set l.status st_incs;
      Trace.emit Trace.Cs_begin 0;
      match body () with
      | r ->
          Atomic.set l.status st_out;
          Signal.consume_quietly l.box;
          Trace.emit Trace.Cs_end 0;
          r
      | exception Rollback ->
          Atomic.set l.status st_out;
          Stats.Counter.incr h.d.rollbacks;
          Trace.emit2 Trace.Rollback 0 (Signal.consumed_seq l.box);
          Trace.emit Trace.Cs_end 1;
          Sched.yield ();
          go ()
      | exception e ->
          Atomic.set l.status st_out;
          Trace.emit Trace.Cs_end 2;
          raise e
    in
    go ()

  (* NBR's write-phase marker: inside the region the thread does not count
     as "in a read phase", so a neutralization is not acted upon (the
     region's accesses go through HP-protected pointers, as NBR's write
     phases do); a pending signal takes effect at the next read-phase
     poll.  This is how NBR runs the Harris list's end-of-search cleanup
     without making it abort-rollback-unsafe. *)
  let mask h body =
    let l = h.l in
    let saved = Atomic.get l.status in
    Atomic.set l.status st_out;
    Fun.protect ~finally:(fun () -> Atomic.set l.status saved) body

  let read h _s ~src ~hdr:_ cell =
    Sched.yield ();
    poll h;
    Alloc.check_access src;
    Link.get cell

  let deref h blk =
    poll h;
    Alloc.check_access blk

  (* Neutralize everyone in this domain, then reclaim the pre-signal batch
     minus shield-protected blocks (delegated to the HP core's scan).

     Graceful degradation (DESIGN.md §8): a [Dead_receiver] is a confirmed
     crash — it will never read again, so it leaves the registry
     (quarantine) and stops being signaled.  A [No_ack] is a live reader
     that did not acknowledge within the bounded wait: reclaiming past it
     would be a use-after-free, so the whole round is skipped — the
     pending batch stays queued and the next retirement retries.  NBR's
     footprint degrades (that is what Table 2's robustness rows measure),
     but never its safety. *)
  let neutralize_and_reclaim h =
    let d = h.d in
    Stats.Counter.incr d.neutralizations;
    let mine = h.l in
    let all_acked = ref true in
    Registry.Participants.iter d.participants (fun l ->
        if l != mine then begin
          Stats.Counter.incr d.signals;
          let seq = Signal.next_seq () in
          Trace.emit2 Trace.Signal_sent l.box.Signal.owner_tid seq;
          match
            Signal.send ~seq ~domain:(Dom.id d.meta) l.box
              ~is_out:(fun () -> Atomic.get l.status = st_out)
          with
          | Signal.Delivered -> ()
          | Signal.Dead_receiver ->
              Stats.Counter.incr d.quarantines;
              Trace.emit Trace.Participant_quarantined l.box.Signal.owner_tid;
              Registry.Participants.remove_where d.participants (fun l' ->
                  l' == l)
          | Signal.No_ack ->
              Stats.Counter.incr d.signal_timeouts;
              all_acked := false
        end);
    if !all_acked then begin
      (* Move the snapshot into the HP batch and scan. *)
      Retired.transfer h.pending ~into:h.hph.Core.batch;
      Core.scan h.hph
    end

  let retire h ?free ?patch:_ ?(claimed = false) blk =
    if not claimed then Alloc.retire blk;
    Dom.tag_retire h.d.meta blk;
    Retired.push h.pending ?free blk;
    if Retired.length h.pending >= h.d.batch_n then neutralize_and_reclaim h

  let recycles = false
  let current_era _ = 0

  let flush h = neutralize_and_reclaim h
  let expedite = flush

  let unregister h =
    flush h;
    Signal.detach h.l.box;
    Core.unregister h.hph;
    Registry.Participants.remove h.d.participants h.idx;
    Dom.on_unregister h.d.meta

  (* NBR's traversal: one read-phase critical section from entry to
     destination, protecting the final cursor before the phase ends. *)
  let traverse h ~prot ~backup:_ w =
    crit h (fun () -> Scheme_common.plain_traverse ~prot w)

  let stats d =
    Dom.stamp_stats d.meta
      {
        (Core.stats d.hp) with
        Stats.neutralizations = Stats.Counter.value d.neutralizations;
        signals = Stats.Counter.value d.signals;
        rollbacks = Stats.Counter.value d.rollbacks;
        signal_timeouts = Stats.Counter.value d.signal_timeouts;
        quarantines = Stats.Counter.value d.quarantines;
        max_signals_inflight = Signal.max_inflight ();
      }
end
