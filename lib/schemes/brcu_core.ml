(** Bounded RCU (paper §4.1, Algorithm 5) with abort-masking (§4.2,
    Algorithm 6).

    This is the epoch machinery of {!Epoch_core} extended with the
    signal-based rollback policy: when a reclaimer has flushed
    [force_threshold] local batches and the global epoch still cannot
    advance because some readers' announced epochs lag, it neutralizes
    {e those readers only} (BRCU's selective signaling, vs. NBR's
    signal-everyone) and then advances.  A neutralized reader's handler
    rolls its critical section back to the checkpoint established at
    [crit] entry — here an OCaml exception unwinding to the [crit] wrapper,
    our [sigsetjmp]/[siglongjmp] substitute (DESIGN.md §2.2).

    The resulting bound (paper §5): a thread schedules at most
    [G = max_local_tasks × force_threshold] deferred tasks per epoch, giving
    at most [2GN + GN² + H] unreclaimed blocks.

    Since the first-class-domain redesign all of this — global epoch,
    registry, TASKS stack, quarantine lot, counters and the laggard
    witness — lives in a {!domain} record.  Signal boxes
    are attached with the domain's id and every neutralization send is
    stamped with it, so one domain's forced advances can never page
    readers of another domain ({!Hpbrcu_runtime.Signal}'s routing fence).
    Deferred work is intrusive (the retired block itself + the domain's
    [execute]), as in {!Epoch_core}.

    Why not {!Epoch_core}: Algorithm 5 queues flushed batches on one
    global TASKS stack stamped at flush time, where Epoch_core keeps
    per-handle task vectors stamped at defer time; and BRCU's quarantine
    must drop a laggard witness that names the quarantined reader, which
    Epoch_core's never meets.  Sharing the code would make it branch on
    its caller.  What BRCU does share is the neutralization send and the
    common quarantine ({!Scheme_common.signal},
    {!Scheme_common.quarantine}).

    Hot-path discipline (DESIGN.md §9): the TASKS list is a
    {!Hpbrcu_core.Segstack} whose segment stamps are the epoch tags (so
    expiry splits whole segments without touching items), local batches are
    reusable {!Hpbrcu_core.Vec}s, and give-up flushes consult a cached
    lagging-reader witness before walking the registry.  Quarantine drops
    the witness when it names the quarantined reader — a crashed reader
    leaves the registry while its announcement stays frozen, and a cache
    that kept citing it would veto advancement forever.

    Abort-masking is not optional: the hunt's planted [HP-BRCU!nomask]
    mutant ({!Hpbrcu_workload.Matrix.hunt_impls}) drops it by replacing
    HP-BRCU's [mask], not through this module. *)

module Alloc = Hpbrcu_alloc.Alloc
module Block = Hpbrcu_alloc.Block
module Dom = Hpbrcu_core.Smr_intf.Dom
module Sched = Hpbrcu_runtime.Sched
module Signal = Hpbrcu_runtime.Signal
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
module Vec = Hpbrcu_core.Vec
module Segstack = Hpbrcu_core.Segstack

exception Rollback
(** Unwinds to the nearest [crit]; the scheme's [siglongjmp]. *)

(* Status encoding (Algorithm 6 line 2). *)
let st_out = 0
let st_incs = 1
let st_inrm = 2
let st_rbreq = 3

type local = {
  epoch : int Atomic.t;  (* -1 = ⊥ *)
  mutable status : int;
      (* Owner-only (DESIGN.md §9): read and written only by the thread
         that registered this local — by its [crit]/[mask], and by
         [handler], which runs in the owner's context ([Signal.poll] at
         the owner's delivery points, or the owner's self-neutralization).
         Senders judge a reader by its [epoch] alone, so Algorithm 6's
         status CAS has no racing writer and a plain field suffices. *)
  box : Signal.box;
  _pad : int array;
      (* live spacer: [epoch] is stored by its owner on every
         critical-section entry and read by every flusher — registration
         allocates locals back-to-back, so without the spacer two
         threads' hot cells share a cache line
         (see {!Hpbrcu_runtime.Layout}) *)
}

type domain = {
  meta : Dom.t;
  global : int Atomic.t;
  participants : local Registry.Participants.t;
  tasks : Block.t Segstack.t;
      (* TASKS (Algorithm 5 line 6): a lock-free stack of epoch-stamped
         segments; the stamp is the batch's epoch tag. *)
  leaked : Block.t Segstack.t;
      (* Quarantine parking lot (DESIGN.md §8): batches a crashed reader
         still pins move here and are never run during the run — leaked,
         but bounded: a crashed reader pins only epochs ≤ its announced
         one, so at most the batches already queued at quarantine time
         land here.  [drain] (domain teardown, when every fiber is gone)
         finally reclaims them. *)
  execute : Block.t -> unit;
  (* Sharded: bumped on scheme hot paths (every rollback/signal/advance),
     read only at snapshot time. *)
  advances : Stats.Counter.t;
  forced : Stats.Counter.t;
  rollbacks : Stats.Counter.t;
  neut : Scheme_common.neutralizer;
  leaked_blocks : Stats.Counter.t;
  lag_gauge : Stats.Gauge.t;
      (* worst (global - announced) gap seen at a flush walk: how far
         behind the laggard BRCU ever lets a reader fall before
         neutralizing it *)
  (* Cached lagging-reader witness (same protocol as {!Epoch_core}): a
     failed give-up walk records the epoch and one violating reader; while
     the global is unchanged and that reader is still announced below it,
     later give-up walks are skipped.  Re-validated on every check, and
     dropped when its reader is quarantined ([cached_violating] gives the
     one race). *)
  lag_epoch : int Atomic.t;
  lag_local : local option Atomic.t;
  force_threshold : int;
  max_local_tasks : int;
}

let create ?execute meta =
  let cfg = Dom.config meta in
  {
    meta;
    global = Atomic.make 2;
    participants = Registry.Participants.create ();
    tasks = Segstack.create ();
    leaked = Segstack.create ();
    execute = (match execute with Some f -> f | None -> Alloc.reclaim);
    advances = Stats.Counter.make ();
    forced = Stats.Counter.make ();
    rollbacks = Stats.Counter.make ();
    neut = Scheme_common.neutralizer meta;
    leaked_blocks = Stats.Counter.make ();
    lag_gauge = Stats.Gauge.make ();
    lag_epoch = Atomic.make (-1);
    lag_local = Atomic.make None;
    force_threshold = cfg.Hpbrcu_core.Config.force_threshold;
    max_local_tasks = cfg.Hpbrcu_core.Config.max_local_tasks;
  }

type handle = {
  d : domain;
  l : local;
  idx : int;
  ltasks : Block.t Vec.t;
  mutable push_cnt : int;  (* Algorithm 5 line 13 *)
}

let register d =
  let l =
    {
      epoch = Atomic.make (-1);
      status = st_out;
      box = Signal.make ();
      _pad = Hpbrcu_runtime.Layout.spacer ();
    }
  in
  Signal.attach ~domain:(Dom.id d.meta) l.box;
  let idx = Registry.Participants.add d.participants l in
  { d; l; idx; ltasks = Vec.create Block.none; push_cnt = 0 }

let epoch d = Atomic.get d.global

(* Signal handler (Algorithm 6 lines 4-7), run in the receiver's context
   by Signal.poll or by the receiver's own self-neutralization. *)
let handler d l () =
  let st = l.status in
  if st = st_incs then begin
    Stats.Counter.incr d.rollbacks;
    (* arg2 joins this rollback to the Signal_sent that caused it. *)
    Trace.emit2 Trace.Rollback 0 (Signal.consumed_seq l.box);
    raise Rollback
  end
  else if st = st_inrm then
    (* The owner is inside Mask: record the request for Mask's exit.  The
       paper's CAS here races an asynchronous handler against Mask's exit
       CAS; this handler runs only between the owner's own statements. *)
    l.status <- st_rbreq

(* [poll]'s slow path, out of line: building the [handler] closure would
   keep [poll] from inlining. *)
let poll_slow h = Signal.poll h.l.box ~handler:(handler h.d h.l)

(** Neutralization delivery point: every mediated read/deref polls, and
    so does HP-BRCU's shield store.  The [deliverable] test comes first so
    that the common no-signal poll does not allocate the [handler]
    closure; it inlines into the caller. *)
let[@inline] poll h = if Signal.deliverable h.l.box then poll_slow h

let in_cs h = h.l.status <> st_out

(* One run of the critical section; a rollback re-enters it from the top,
   Checkpoint(chkpt), by a tail call rather than through a closure built
   per [crit]. *)
let rec crit_run d l body =
  Signal.consume_quietly l.box;  (* delivery while Out is a no-op *)
  l.status <- st_incs;
  let e = Atomic.get d.global in
  Atomic.set l.epoch e;  (* SC: line 16's fence *)
  Trace.emit Trace.Cs_begin e;
  match body () with
  | r ->
      Atomic.set l.epoch (-1);
      l.status <- st_out;
      Signal.consume_quietly l.box;
      Trace.emit Trace.Cs_end 0;
      r
  | exception Rollback ->
      Atomic.set l.epoch (-1);
      l.status <- st_out;
      Trace.emit Trace.Cs_end 1;
      Sched.yield ();
      crit_run d l body
  | exception e ->
      Atomic.set l.epoch (-1);
      l.status <- st_out;
      Trace.emit Trace.Cs_end 2;
      raise e

(** CriticalSection (Algorithm 5 line 14).  The body may be re-executed
    after each rollback; it must be abort-rollback-safe (§4.1). *)
let crit h body =
  assert (not (in_cs h));
  crit_run h.d h.l body

(** Abort-masked region (Algorithm 6 line 8).  Inside [crit], a
    neutralization received in the region is deferred to its exit.
    Outside any critical section there is nothing to defer — the region
    runs as-is (write phases mask for uniformity). *)
let mask_in_cs h body =
  let l = h.l in
  l.status <- st_inrm;
  let result =
    try body ()
    with e ->
      (* Body failed on its own: restore and propagate. *)
      l.status <- st_incs;
      raise e
  in
  if l.status = st_inrm then begin
    l.status <- st_incs;
    result
  end
  else begin
    (* A signal arrived inside the region: honour it now. *)
    assert (l.status = st_rbreq);
    l.status <- st_incs;
    Stats.Counter.incr h.d.rollbacks;
    (* The deferred delivery was consumed when the mask recorded the
       request, so its seq is still the one to cite. *)
    Trace.emit2 Trace.Rollback 0 (Signal.consumed_seq l.box);
    raise Rollback
  end

let mask h body = if h.l.status <> st_incs then body () else mask_in_cs h body

(* Pop every segment stamped ≤ limit and run it (Algorithm 5 line 34).
   Surviving segments go back with one CAS before any block runs. *)
let run_expired d limit =
  match Segstack.take_all d.tasks with
  | None -> 0
  | Some _ as chain ->
      let expired, kept = Segstack.split chain (fun e -> e <= limit) in
      Segstack.push_chain d.tasks kept;
      let n = Segstack.total expired in
      Segstack.iter expired d.execute;
      n

(* Move the global epoch from [eg] to [eg + 1] — losing the CAS means
   another thread already did — then run every batch stamped before [eg]
   (Algorithm 5 lines 33-34).  Tells whether this call advanced. *)
let advance_from d eg =
  let advanced = Atomic.compare_and_set d.global eg (eg + 1) in
  if advanced then begin
    Stats.Counter.incr d.advances;
    Trace.emit Trace.Epoch_advance (eg + 1)
  end;
  ignore (run_expired d (eg - 1) : int);
  advanced

(* Quarantine a participant whose box answered [Dead_receiver]
   ({!Scheme_common.quarantine}).  The call that removes it from the
   registry also drops a laggard witness that names it, and moves every
   queued batch its announced epoch could still pin (tag ≤ current
   global) to the [leaked] parking lot — leaked because we must never run
   a task a dead-but-pinning reader protects, bounded because no new
   batch can acquire a tag the dead reader pins. *)
let quarantine d l =
  if Scheme_common.quarantine d.neut d.participants l l.box then begin
    (match Atomic.get d.lag_local with
    | Some w as cur when w == l ->
        ignore (Atomic.compare_and_set d.lag_local cur None : bool)
    | _ -> ());
    let eg = Atomic.get d.global in
    match Segstack.take_all d.tasks with
    | None -> ()
    | Some _ as chain ->
        let pinned, kept = Segstack.split chain (fun e -> e <= eg) in
        Segstack.push_chain d.tasks kept;
        (match pinned with
        | None -> ()
        | Some _ ->
            Stats.Counter.add d.leaked_blocks (Segstack.total pinned);
            Segstack.push_chain d.leaked pinned)
  end

(* Capped, backed-off neutralization of one lagging reader.  [Delivered]
   is the paper's fast path; [Dead_receiver] quarantines; [No_ack] after
   [signal_retry_cap] attempts means a live reader that is not
   acknowledging (stalled past every backoff) — reclamation must NOT
   proceed past it, so the caller skips this round's advance. *)
let signal_retry_cap = 3

let neutralize d l ~eg =
  let is_out () =
    let e = Atomic.get l.epoch in
    e = -1 || e >= eg
  in
  let rec attempt n =
    match Scheme_common.signal d.neut l.box ~is_out with
    | Signal.Delivered -> true
    | Signal.Dead_receiver ->
        quarantine d l;
        true
    | Signal.No_ack ->
        if n >= signal_retry_cap then false
        else begin
          (* Exponential backoff between retries: 2^n unconditional
             switch points, giving the receiver 2, 4, 8 … chances to
             reach a poll before we bother it again. *)
          for _ = 1 to 1 lsl n do
            Sched.yield_now ()
          done;
          attempt (n + 1)
        end
  in
  attempt 1

(* Does the cached witness still show a violating reader at global [eg]?
   Quarantine drops a witness that names the quarantined reader, whose
   frozen announcement must stop blocking advancement.  On fibers no
   yield falls between a registry walk and [cache_witness], so a removed
   reader is never cached again.  On domains a walk that raced the
   removal can still cache it; that only skips give-up walks until the
   next forced flush, which walks the registry and finds it gone. *)
let cached_violating d eg =
  Atomic.get d.lag_epoch = eg
  && (match Atomic.get d.lag_local with
     | None -> false
     | Some l ->
         let e = Atomic.get l.epoch in
         e <> -1 && e < eg)

let cache_witness d eg l =
  Atomic.set d.lag_local (Some l);
  Atomic.set d.lag_epoch eg

(* Flush the local batch and try to advance the epoch, signaling lagging
   readers once the force threshold is reached (Algorithm 5 lines 25-34).
   An empty batch is a no-op. *)
let flush_and_advance h =
  let d = h.d in
  if not (Vec.is_empty h.ltasks) then begin
    let eg = Atomic.get d.global in
    Trace.emit Trace.Flush_begin eg;
    (* 0 = advanced this round, 1 = gave up / vetoed; set where known. *)
    let outcome = ref 1 in
    (* SC fences around the load (line 25) are implied by SC atomics. *)
    Segstack.push_arr d.tasks ~stamp:eg (Vec.to_array h.ltasks);
    Vec.clear h.ltasks;
    h.push_cnt <- h.push_cnt + 1;
    let below_force = h.push_cnt < d.force_threshold in
    if below_force && cached_violating d eg then
      (* Give up for now (line 31): the cached reader still lags and we
         are below the force threshold, so the walk's outcome is known. *)
      ()
    else begin
      (* Find violating readers: announced epoch ≠ ⊥ and < Eg. *)
      let violating = ref [] in
      Registry.Participants.iter d.participants (fun l ->
          let e = Atomic.get l.epoch in
          if e <> -1 && e < eg then begin
            Stats.Gauge.observe d.lag_gauge (eg - e);
            violating := l :: !violating
          end);
      (match !violating with
      | [] -> ()
      | l :: _ -> cache_witness d eg l);
      if !violating <> [] && below_force then
        (* Give up for now (line 31). *)
        ()
      else begin
        let unacked = ref false in
        if !violating <> [] then begin
          Stats.Counter.incr d.forced;
          List.iter
            (fun l ->
              if l == h.l then begin
                (* Self-neutralization: Retire may run inside a (masked)
                   critical section, making the reclaimer its own lagging
                   reader.  A real signal to self runs the handler inline;
                   so do we.  Inside a mask this records the rollback
                   request; in a bare critical section it aborts the rest
                   of this flush, exactly as a self-longjmp would. *)
                Stats.Counter.incr d.neut.sent;
                let seq = Signal.next_seq () in
                Trace.emit2 Trace.Signal_sent l.box.Signal.owner_tid seq;
                Signal.mark_self_delivery l.box ~seq;
                (* A self-longjmp aborts the rest of this flush; close
                   the span on the way out so begin/end stay paired. *)
                try handler d l ()
                with Rollback ->
                  Trace.emit Trace.Flush_end 1;
                  raise Rollback
              end
              else if not (neutralize d l ~eg) then unacked := true)
            !violating
        end;
        h.push_cnt <- 0;
        if !unacked then
          (* A live reader never acked: advancing would reclaim under it.
             Degrade gracefully — keep the batches queued and try again
             after the next force_threshold flushes. *)
          ()
        else if advance_from d eg then outcome := 0
      end
    end;
    Trace.emit Trace.Flush_end !outcome
  end

(** Defer (Algorithm 5 line 22) — intrusive: the block itself is pushed
    into the reusable local batch; the segment stamp added at flush
    carries the epoch tag. *)
let defer h blk =
  Vec.push h.ltasks blk;
  if Vec.length h.ltasks >= h.d.max_local_tasks then flush_and_advance h

let flush h =
  let d = h.d in
  flush_and_advance h;
  (* One more advance attempt so freshly-pushed batches can expire. *)
  let eg = Atomic.get d.global in
  if cached_violating d eg then ()
  else begin
    let lagging = ref None in
    Registry.Participants.iter d.participants (fun l ->
        match !lagging with
        | Some _ -> ()
        | None ->
            let e = Atomic.get l.epoch in
            if e <> -1 && e < eg then begin
              Stats.Gauge.observe d.lag_gauge (eg - e);
              lagging := Some l
            end);
    match !lagging with
    | Some l -> cache_witness d eg l
    | None -> ignore (advance_from d eg : bool)
  end

let unregister h =
  assert (not (in_cs h));
  flush h;
  Signal.detach h.l.box;
  Registry.Participants.remove h.d.participants h.idx

(** Domain teardown: the run is over and every fiber (crashed ones
    included) is gone, so the TASKS stack and even the quarantine parking
    lot can finally be reclaimed. *)
let drain d =
  let drain_stack stack =
    match Segstack.take_all stack with
    | None -> ()
    | Some _ as chain -> Segstack.iter chain d.execute
  in
  drain_stack d.tasks;
  drain_stack d.leaked;
  Registry.Participants.reset d.participants;
  Atomic.set d.global 2;
  Atomic.set d.lag_epoch (-1);
  Atomic.set d.lag_local None;
  Stats.Counter.reset d.advances;
  Stats.Counter.reset d.forced;
  Stats.Counter.reset d.rollbacks;
  Scheme_common.reset_neutralizer d.neut;
  Stats.Counter.reset d.leaked_blocks;
  Stats.Gauge.reset d.lag_gauge

let stats d =
  {
    Stats.empty with
    epoch = Atomic.get d.global;
    advances = Stats.Counter.value d.advances;
    forced_advances = Stats.Counter.value d.forced;
    rollbacks = Stats.Counter.value d.rollbacks;
    signals = Stats.Counter.value d.neut.sent;
    signal_timeouts = Stats.Counter.value d.neut.timeouts;
    quarantines = Stats.Counter.value d.neut.quarantines;
    leaked = Stats.Counter.value d.leaked_blocks;
    max_epoch_lag = Stats.Gauge.maximum d.lag_gauge;
    max_signals_inflight = Signal.max_inflight ();
  }
