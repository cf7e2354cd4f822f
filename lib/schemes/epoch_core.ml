(** Fraser-style epoch machinery (the paper's "epoch-based RCU", §2.2).
    Its users: EBR (the whole scheme), the RCU side of HP-RCU, and PEBR's
    epoch half, which keeps only its ejecting advance ({!advance_from} is
    the shared last step) and drives {!push}, {!adopt_orphans},
    {!run_expired} and {!leave} itself.  HP-BRCU's bounded RCU keeps its
    own machinery in {!Brcu_core}.

    Invariants (paper §2.2): a global epoch; each critical section pins the
    global epoch into a local announcement; concurrent critical sections'
    epochs differ by at most one (the global only advances when every
    pinned epoch equals it); a task deferred at epoch [e] is safe to run at
    [e + 2].

    Since the first-class-domain redesign the machinery is a {!domain}
    record, not a functor: the global epoch, participant registry, orphan
    list, counters and the laggard-witness cache are all per-domain, so
    epochs in one domain never wait on readers of another.

    Deferred work is {e intrusive} (P0484's [rcu_obj_base] idea): a
    deferral is the retired block itself, its epoch stamped into the
    block's own [retire_era] header field, executed by the domain's
    [execute] function once expired.  EBR's and PEBR's executor reclaims
    directly; HP-RCU installs one that hands the block to its
    hazard-pointer half ({!Hp_core.retire_deferred}).  A defer stores one
    pointer into a reusable vector: nothing is allocated per retire.

    Hot-path discipline (DESIGN.md §9): deferred blocks live in a
    reusable {!Hpbrcu_core.Vec} partitioned in place, orphan batches
    travel as {!Hpbrcu_core.Segstack} segments that carry their counts,
    and a failed [try_advance] caches the laggard it saw so repeated
    failures skip the participant walk until the cached witness stops
    lagging. *)

module Alloc = Hpbrcu_alloc.Alloc
module Block = Hpbrcu_alloc.Block
module Dom = Hpbrcu_core.Smr_intf.Dom
module Sched = Hpbrcu_runtime.Sched
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
module Vec = Hpbrcu_core.Vec
module Segstack = Hpbrcu_core.Segstack

(* ['x] is what the embedding scheme attaches to its participant record:
   PEBR's ejection signal box, [unit] for EBR and HP-RCU. *)
type 'x local = {
  pin : int Atomic.t;  (* -1 = unpinned *)
  ext : 'x;
  _pad : int array;
      (* live spacer allocated right after [pin]: keeps one thread's
         announcement a cache line away from the next registrant's, since
         registration allocates locals back-to-back on the minor heap
         (see {!Hpbrcu_runtime.Layout}) *)
}

type 'x domain = {
  meta : Dom.t;
  global : int Atomic.t;
  participants : 'x local Registry.Participants.t;
  orphans : Block.t Segstack.t;
      (* deferred blocks of unregistered threads, adopted by later
         collectors *)
  execute : Block.t -> unit;
      (* what "running" an expired deferral means: reclaim (EBR) or hand
         to the HP half (HP-RCU, PEBR) *)
  advances : Stats.Counter.t;
  advance_failures : Stats.Counter.t;
  lag_gauge : Stats.Gauge.t;
      (* worst (global - lagging pin) gap seen at a failed advance.  Plain
         EBR never closes this gap by force — a stalled reader freezes it
         — so the gauge is the counterpart of BRCU's bounded lag. *)
  (* Cached laggard witness: when [try_advance] fails at global epoch [e],
     it records [e] and the lagging participant it saw.  As long as the
     global is still [e] and that participant is still pinned below it, a
     later attempt must fail for the same reason — skip the walk.  The
     witness is re-validated on every check, so any interleaving at worst
     falls back to the full walk; it never claims an advance is
     possible. *)
  lag_epoch : int Atomic.t;
  lag_local : 'x local option Atomic.t;
  batch_n : int;
}

let create ?execute meta =
  {
    meta;
    global = Atomic.make 2;
    participants = Registry.Participants.create ();
    orphans = Segstack.create ();
    execute = (match execute with Some f -> f | None -> Alloc.reclaim);
    advances = Stats.Counter.make ();
    advance_failures = Stats.Counter.make ();
    lag_gauge = Stats.Gauge.make ();
    lag_epoch = Atomic.make (-1);
    lag_local = Atomic.make None;
    batch_n = (Dom.config meta).Hpbrcu_core.Config.batch;
  }

type 'x handle = {
  d : 'x domain;
  l : 'x local;
  idx : int;
  mutable nest : int;
  tasks : Block.t Vec.t;
  expired : Block.t Vec.t;  (* scratch for [run_expired]'s partition *)
  mutable running : bool;  (* reentrancy guard: executors may defer *)
}

let register d ext =
  let l =
    { pin = Atomic.make (-1); ext; _pad = Hpbrcu_runtime.Layout.spacer () }
  in
  let idx = Registry.Participants.add d.participants l in
  {
    d;
    l;
    idx;
    nest = 0;
    tasks = Vec.create Block.none;
    expired = Vec.create Block.none;
    running = false;
  }

let epoch d = Atomic.get d.global

let pin h =
  if h.nest = 0 then begin
    (* SC store: publication fence of the announcement. *)
    Atomic.set h.l.pin (Atomic.get h.d.global);
    Trace.emit Trace.Cs_begin (Atomic.get h.l.pin)
  end;
  h.nest <- h.nest + 1

(** [unpin_as h outcome] leaves a section that ended with [outcome]
    ([Trace.Cs_end]'s argument: 0 done, 1 restarted, 2 raised). *)
let[@inline] unpin_as h outcome =
  h.nest <- h.nest - 1;
  assert (h.nest >= 0);
  if h.nest = 0 then begin
    Atomic.set h.l.pin (-1);
    Trace.emit Trace.Cs_end outcome
  end

(* Plain RCU sections cannot abort: the outcome is always 0. *)
let unpin h = unpin_as h 0

let pinned h = h.nest > 0

(** Critical section without rollback (plain RCU). *)
let crit h body =
  pin h;
  match body () with
  | r ->
      unpin h;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      unpin h;
      Printexc.raise_with_backtrace e bt

(* Full participant walk; returns the first lagging local, if any. *)
let find_lagging d e =
  let lagging = ref None in
  Registry.Participants.iter d.participants (fun l ->
      match !lagging with
      | Some _ -> ()
      | None ->
          let p = Atomic.get l.pin in
          if p <> -1 && p < e then lagging := Some l);
  !lagging

(* Does the cached witness still prove that no advance from [e] can
   succeed?  Sound under any race: [p <> -1 && p < e] read now is exactly
   the condition the walk would rediscover. *)
let cached_lagging d e =
  Atomic.get d.lag_epoch = e
  && (match Atomic.get d.lag_local with
     | None -> false
     | Some l ->
         let p = Atomic.get l.pin in
         p <> -1 && p < e)

(** Move the global epoch from [e] to [e + 1]; losing the CAS means
    another thread already did. *)
let advance_from d e =
  if Atomic.compare_and_set d.global e (e + 1) then begin
    Stats.Counter.incr d.advances;
    Trace.emit Trace.Epoch_advance (e + 1)
  end

(* The global epoch can advance from [e] only when no participant is
   pinned at an epoch < [e]; pins never exceed the global they read. *)
let try_advance d =
  let e = Atomic.get d.global in
  if cached_lagging d e then begin
    Stats.Counter.incr d.advance_failures;
    false
  end
  else
    match find_lagging d e with
    | Some l ->
        (let p = Atomic.get l.pin in
         if p <> -1 && p < e then Stats.Gauge.observe d.lag_gauge (e - p));
        (* Order matters for the fast path's soundness-by-revalidation:
           publish the witness before the epoch tag that activates it. *)
        Atomic.set d.lag_local (Some l);
        Atomic.set d.lag_epoch e;
        Stats.Counter.incr d.advance_failures;
        false
    | None ->
        advance_from d e;
        true

let adopt_orphans h =
  match Segstack.take_all h.d.orphans with
  | None -> ()
  | Some _ as chain -> Segstack.iter chain (fun t -> Vec.push h.tasks t)

(* Run every local block whose stamp is ≤ global - 2 (Fraser's safety
   margin).  Returns the number executed.  Reentrant calls (an executor
   deferring enough to trigger another collect) are cut off so the
   [expired] scratch is never clobbered mid-iteration. *)
let run_expired h =
  if h.running then 0
  else begin
    h.running <- true;
    let limit = Atomic.get h.d.global - 2 in
    Vec.clear h.expired;
    Vec.partition_into h.tasks (fun b -> Block.retire_era b <= limit) h.expired;
    let n = Vec.length h.expired in
    (try Vec.iter h.expired h.d.execute
     with e ->
       h.running <- false;
       raise e);
    h.running <- false;
    n
  end

(** Attempt an epoch advance and collect expired deferred blocks; the
    per-[batch]-retirements trigger of §6.  Returns blocks executed. *)
let advance_and_collect h =
  adopt_orphans h;
  Trace.emit Trace.Flush_begin (Atomic.get h.d.global);
  let advanced = try_advance h.d in
  Trace.emit Trace.Flush_end (if advanced then 0 else 1);
  run_expired h

(** [push h blk] queues [blk]'s deferral, its [retire_era] stamped with
    the current global epoch, and tells whether the local queue has
    reached the batch size — the caller's cue to collect. *)
let[@inline] push h blk =
  Block.mark_retire_era blk ~era:(Atomic.get h.d.global);
  Vec.push h.tasks blk;
  Vec.length h.tasks >= h.d.batch_n

(** [defer h blk] schedules [blk]'s deferred work (RCU's Defer,
    Algorithm 2): once all current critical sections have ended, the
    domain's executor runs on the block.  Intrusive — the block carries
    its own epoch stamp, no closure and no record. *)
let defer h blk = if push h blk then ignore (advance_and_collect h : int)

let flush h = ignore (advance_and_collect h : int)

(** Leave the domain: orphan the not-yet-expired blocks for later
    collectors and free the participant slot. *)
let leave h =
  assert (h.nest = 0);
  Segstack.push_arr h.d.orphans (Vec.to_array h.tasks);
  Vec.clear h.tasks;
  Registry.Participants.remove h.d.participants h.idx

let unregister h =
  ignore (advance_and_collect h : int);
  leave h

(** Domain teardown: no threads registered, run everything. *)
let drain d =
  (match Segstack.take_all d.orphans with
  | None -> ()
  | Some _ as chain -> Segstack.iter chain d.execute);
  Registry.Participants.reset d.participants;
  Atomic.set d.global 2;
  Atomic.set d.lag_epoch (-1);
  Atomic.set d.lag_local None;
  Stats.Counter.reset d.advances;
  Stats.Counter.reset d.advance_failures;
  Stats.Gauge.reset d.lag_gauge

let stats d =
  {
    Stats.empty with
    epoch = Atomic.get d.global;
    advances = Stats.Counter.value d.advances;
    advance_failures = Stats.Counter.value d.advance_failures;
    max_epoch_lag = Stats.Gauge.maximum d.lag_gauge;
  }
