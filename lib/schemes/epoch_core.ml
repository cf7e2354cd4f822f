(** Fraser-style epoch machinery (the paper's "epoch-based RCU", §2.2),
    shared by EBR, PEBR, and the RCU side of HP-RCU.

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
    deferral is a {!Hpbrcu_core.Retired.entry} — the block header plus an
    epoch stamp in a preallocated slot — executed by the domain's
    [execute] function once expired.  EBR's executor reclaims directly;
    HP-RCU and PEBR install an executor that hands the entry to their
    hazard-pointer half ({!Hp_core.retire_deferred_entry}).  No per-retire
    closure is allocated anywhere on the path (the optional [free]
    callback rides in the entry's existing field).

    Hot-path discipline (DESIGN.md §9): deferred entries live in a
    reusable {!Hpbrcu_core.Vec} partitioned in place, orphan batches
    travel as {!Hpbrcu_core.Segstack} segments that carry their counts,
    and a failed [try_advance] caches the laggard it saw so repeated
    failures skip the participant walk until the cached witness stops
    lagging. *)

module Alloc = Hpbrcu_alloc.Alloc
module Dom = Hpbrcu_core.Smr_intf.Dom
module Retired = Hpbrcu_core.Retired
module Sched = Hpbrcu_runtime.Sched
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
module Vec = Hpbrcu_core.Vec
module Segstack = Hpbrcu_core.Segstack

let dummy_entry () =
  { Retired.blk = Retired.dummy_block; free = None; stamp = 0; patches = [] }

type local = {
  pin : int Atomic.t;  (* -1 = unpinned *)
  _pad : int array;
      (* live spacer allocated right after [pin]: keeps one thread's
         announcement a cache line away from the next registrant's, since
         registration allocates locals back-to-back on the minor heap
         (see {!Hpbrcu_runtime.Layout}) *)
}

type domain = {
  meta : Dom.t;
  global : int Atomic.t;
  participants : local Registry.Participants.t;
  orphans : Retired.entry Segstack.t;
      (* deferred entries of unregistered threads, adopted by later
         collectors *)
  execute : Retired.entry -> unit;
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
  lag_local : local option Atomic.t;
  batch_n : int;
}

let create ?execute meta =
  {
    meta;
    global = Atomic.make 2;
    participants = Registry.Participants.create ();
    orphans = Segstack.create ();
    execute =
      (match execute with Some f -> f | None -> Retired.reclaim_entry);
    advances = Stats.Counter.make ();
    advance_failures = Stats.Counter.make ();
    lag_gauge = Stats.Gauge.make ();
    lag_epoch = Atomic.make (-1);
    lag_local = Atomic.make None;
    batch_n = (Dom.config meta).Hpbrcu_core.Config.batch;
  }

type handle = {
  d : domain;
  l : local;
  idx : int;
  mutable nest : int;
  tasks : Retired.entry Vec.t;
  expired : Retired.entry Vec.t;  (* scratch for [run_expired]'s partition *)
  mutable running : bool;  (* reentrancy guard: executors may defer *)
}

let register d =
  let l = { pin = Atomic.make (-1); _pad = Hpbrcu_runtime.Layout.spacer () } in
  let idx = Registry.Participants.add d.participants l in
  {
    d;
    l;
    idx;
    nest = 0;
    tasks = Vec.create (dummy_entry ());
    expired = Vec.create (dummy_entry ());
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

let unpin h =
  h.nest <- h.nest - 1;
  assert (h.nest >= 0);
  if h.nest = 0 then begin
    Atomic.set h.l.pin (-1);
    (* Plain RCU sections cannot abort: the outcome is always 0. *)
    Trace.emit Trace.Cs_end 0
  end

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
        if Atomic.compare_and_set d.global e (e + 1) then begin
          Stats.Counter.incr d.advances;
          Trace.emit Trace.Epoch_advance (e + 1)
        end;
        true

let adopt_orphans h =
  match Segstack.take_all h.d.orphans with
  | None -> ()
  | Some _ as chain -> Segstack.iter chain (fun t -> Vec.push h.tasks t)

(* Run every local entry whose stamp is ≤ global - 2 (Fraser's safety
   margin).  Returns the number executed.  Reentrant calls (an executor's
   free callback deferring enough to trigger another collect) are cut off
   so the [expired] scratch is never clobbered mid-iteration. *)
let run_expired h =
  if h.running then 0
  else begin
    h.running <- true;
    let limit = Atomic.get h.d.global - 2 in
    Vec.clear h.expired;
    Vec.partition_into h.tasks (fun e -> e.Retired.stamp <= limit) h.expired;
    let n = Vec.length h.expired in
    (try Vec.iter h.expired h.d.execute
     with e ->
       h.running <- false;
       raise e);
    h.running <- false;
    n
  end

(** Attempt an epoch advance and collect expired deferred entries; the
    per-[batch]-retirements trigger of §6.  Returns entries executed. *)
let advance_and_collect h =
  adopt_orphans h;
  Trace.emit Trace.Flush_begin (Atomic.get h.d.global);
  let advanced = try_advance h.d in
  Trace.emit Trace.Flush_end (if advanced then 0 else 1);
  run_expired h

(** [defer h ?free blk] schedules [blk]'s deferred work (RCU's Defer,
    Algorithm 2): once all current critical sections have ended, the
    domain's executor runs on the entry.  Intrusive — the block and the
    epoch stamp land in a preallocated {!Retired.entry}, no closure. *)
let defer h ?free blk =
  Vec.push h.tasks
    { Retired.blk; free; stamp = Atomic.get h.d.global; patches = [] };
  if Vec.length h.tasks >= h.d.batch_n then
    ignore (advance_and_collect h : int)

let flush h = ignore (advance_and_collect h : int)

let unregister h =
  assert (h.nest = 0);
  ignore (advance_and_collect h : int);
  Segstack.push_arr h.d.orphans (Vec.to_array h.tasks);
  Vec.clear h.tasks;
  Registry.Participants.remove h.d.participants h.idx

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
