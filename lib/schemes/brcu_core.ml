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
    registry, TASKS stack, quarantine lot, counters, the tid→local lookup
    and the laggard witness — lives in a {!domain} record.  Signal boxes
    are attached with the domain's id and every neutralization send is
    stamped with it, so one domain's forced advances can never page
    readers of another domain ({!Hpbrcu_runtime.Signal}'s routing fence).
    Deferred work is intrusive ({!Hpbrcu_core.Retired.entry} + the
    domain's [execute]), as in {!Epoch_core}.

    Hot-path discipline (DESIGN.md §9): the TASKS list is a
    {!Hpbrcu_core.Segstack} whose segment stamps are the epoch tags (so
    expiry splits whole segments without touching items), local batches are
    reusable {!Hpbrcu_core.Vec}s, and give-up flushes consult a cached
    lagging-reader witness before walking the registry.  The witness check
    excludes quarantined readers — a crashed reader leaves the registry
    while its announcement stays frozen, and a cache that kept citing it
    would veto advancement forever. *)

module Dom = Hpbrcu_core.Smr_intf.Dom
module Retired = Hpbrcu_core.Retired
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

let dummy_entry () =
  { Retired.blk = Retired.dummy_block; free = None; stamp = 0; patches = [] }

type local = {
  epoch : int Atomic.t;  (* -1 = ⊥ *)
  status : int Atomic.t;
  box : Signal.box;
  quarantined : bool Atomic.t;  (* confirmed crashed; no longer blocks *)
  _pad : int array;
      (* live spacer: [epoch]/[status] are stored by their owner on every
         critical-section entry and read by every flusher — registration
         allocates locals back-to-back, so without the spacer two
         threads' hot cells share a cache line
         (see {!Hpbrcu_runtime.Layout}) *)
}

type domain = {
  meta : Dom.t;
  global : int Atomic.t;
  participants : local Registry.Participants.t;
  tasks : Retired.entry Segstack.t;
      (* TASKS (Algorithm 5 line 6): a lock-free stack of epoch-stamped
         segments; the stamp is the batch's epoch tag. *)
  leaked : Retired.entry Segstack.t;
      (* Quarantine parking lot (DESIGN.md §8): batches a crashed reader
         still pins move here and are never run during the run — leaked,
         but bounded: a crashed reader pins only epochs ≤ its announced
         one, so at most the batches already queued at quarantine time
         land here.  [drain] (domain teardown, when every fiber is gone)
         finally reclaims them. *)
  execute : Retired.entry -> unit;
  (* Sharded: bumped on scheme hot paths (every rollback/signal/advance),
     read only at snapshot time. *)
  advances : Stats.Counter.t;
  forced : Stats.Counter.t;
  rollbacks : Stats.Counter.t;
  signals : Stats.Counter.t;
  signal_timeouts : Stats.Counter.t;
  quarantines : Stats.Counter.t;
  leaked_blocks : Stats.Counter.t;
  lag_gauge : Stats.Gauge.t;
      (* worst (global - announced) gap seen at a flush walk: how far
         behind the laggard BRCU ever lets a reader fall before
         neutralizing it *)
  (* Cached lagging-reader witness (same protocol as {!Epoch_core}): a
     failed give-up walk records the epoch and one violating reader; while
     the global is unchanged and that reader is still announced below it —
     and NOT quarantined — later give-up walks are skipped.  Re-validated
     on every check, so it can only err towards the full walk. *)
  lag_epoch : int Atomic.t;
  lag_local : local option Atomic.t;
  locals_by_tid : local option array;
      (* thread-id → local lookup so that operations without a handle in
         scope (shield protection during checkpoints) can still act as
         signal delivery points — in the paper a signal can land between
         any two instructions, in particular between the two protect
         stores of a checkpoint (the case double buffering exists for,
         §4.3).  Per-domain: a tid can hold one local in each domain it
         registered with. *)
  force_threshold : int;
  max_local_tasks : int;
  abort_masking : bool;
}

let create ?execute meta =
  let cfg = Dom.config meta in
  {
    meta;
    global = Atomic.make 2;
    participants = Registry.Participants.create ();
    tasks = Segstack.create ();
    leaked = Segstack.create ();
    execute =
      (match execute with Some f -> f | None -> Retired.reclaim_entry);
    advances = Stats.Counter.make ();
    forced = Stats.Counter.make ();
    rollbacks = Stats.Counter.make ();
    signals = Stats.Counter.make ();
    signal_timeouts = Stats.Counter.make ();
    quarantines = Stats.Counter.make ();
    leaked_blocks = Stats.Counter.make ();
    lag_gauge = Stats.Gauge.make ();
    lag_epoch = Atomic.make (-1);
    lag_local = Atomic.make None;
    locals_by_tid = Array.make Sched.max_threads None;
    force_threshold = cfg.Hpbrcu_core.Config.force_threshold;
    max_local_tasks = cfg.Hpbrcu_core.Config.max_local_tasks;
    abort_masking = cfg.Hpbrcu_core.Config.abort_masking;
  }

type handle = {
  d : domain;
  l : local;
  idx : int;
  ltasks : Retired.entry Vec.t;
  mutable push_cnt : int;  (* Algorithm 5 line 13 *)
}

let register d =
  let l =
    {
      epoch = Atomic.make (-1);
      status = Atomic.make st_out;
      box = Signal.make ();
      quarantined = Atomic.make false;
      _pad = Hpbrcu_runtime.Layout.spacer ();
    }
  in
  Signal.attach ~domain:(Dom.id d.meta) l.box;
  let idx = Registry.Participants.add d.participants l in
  let tid = Sched.self () in
  if tid >= 0 && tid < Array.length d.locals_by_tid then
    d.locals_by_tid.(tid) <- Some l;
  { d; l; idx; ltasks = Vec.create (dummy_entry ()); push_cnt = 0 }

let epoch d = Atomic.get d.global

(* Signal handler (Algorithm 6 lines 4-7), run in the receiver's context
   by Signal.poll. *)
let handler d l () =
  let st = Atomic.get l.status in
  if st = st_incs then begin
    Stats.Counter.incr d.rollbacks;
    (* arg2 joins this rollback to the Signal_sent that caused it. *)
    Trace.emit2 Trace.Rollback 0 (Signal.consumed_seq l.box);
    raise Rollback
  end
  else if st = st_inrm then
    (* Racing with Mask's exit CAS; CAS keeps exactly one winner. *)
    ignore (Atomic.compare_and_set l.status st_inrm st_rbreq)

(* [poll]'s slow path, out of line: building the [handler] closure would
   keep [poll] from inlining. *)
let poll_slow h = Signal.poll h.l.box ~handler:(handler h.d h.l)

(** Neutralization delivery point: every mediated read/deref polls.  The
    [deliverable] test comes first so that the common no-signal poll does
    not allocate the [handler] closure; it inlines into the caller. *)
let[@inline] poll h = if Signal.deliverable h.l.box then poll_slow h

(** Delivery point for contexts that only know the calling thread and the
    domain (e.g. shield stores inside a checkpoint). *)
let poll_self d =
  let tid = Sched.self () in
  if tid >= 0 && tid < Array.length d.locals_by_tid then
    match d.locals_by_tid.(tid) with
    | Some l when Signal.deliverable l.box ->
        Signal.poll l.box ~handler:(handler d l)
    | Some _
    | None -> ()

let in_cs h = Atomic.get h.l.status <> st_out

(** CriticalSection (Algorithm 5 line 14).  The body may be re-executed
    after each rollback; it must be abort-rollback-safe (§4.1). *)
let crit h body =
  assert (not (in_cs h));
  let l = h.l in
  let rec go () =
    (* Checkpoint(chkpt): re-entry point of the rollback. *)
    Signal.consume_quietly l.box;  (* delivery while Out is a no-op *)
    Atomic.set l.status st_incs;
    Atomic.set l.epoch (Atomic.get h.d.global);  (* SC: line 16's fence *)
    Trace.emit Trace.Cs_begin (Atomic.get l.epoch);
    match body () with
    | r ->
        Atomic.set l.epoch (-1);
        Atomic.set l.status st_out;
        Signal.consume_quietly l.box;
        Trace.emit Trace.Cs_end 0;
        r
    | exception Rollback ->
        Atomic.set l.epoch (-1);
        Atomic.set l.status st_out;
        Trace.emit Trace.Cs_end 1;
        Sched.yield ();
        go ()
    | exception e ->
        Atomic.set l.epoch (-1);
        Atomic.set l.status st_out;
        Trace.emit Trace.Cs_end 2;
        raise e
  in
  go ()

(** Abort-masked region (Algorithm 6 line 8).  Inside [crit], a
    neutralization received in the region is deferred to its exit.
    Outside any critical section there is nothing to defer — the region
    runs as-is (write phases mask for uniformity). *)
let mask_in_cs h body =
  let l = h.l in
  Atomic.set l.status st_inrm;
  let result =
    try body ()
    with e ->
      (* Body failed on its own: restore and propagate. *)
      Atomic.set l.status st_incs;
      raise e
  in
  if Atomic.compare_and_set l.status st_inrm st_incs then result
  else begin
    (* A signal arrived inside the region: honour it now. *)
    assert (Atomic.get l.status = st_rbreq);
    Atomic.set l.status st_incs;
    Stats.Counter.incr h.d.rollbacks;
    (* The deferred delivery was consumed when the mask recorded the
       request, so its seq is still the one to cite. *)
    Trace.emit2 Trace.Rollback 0 (Signal.consumed_seq l.box);
    raise Rollback
  end

let mask h body =
  if not h.d.abort_masking then
    (* Mutation hook (lib/check): the region runs bare, so a
       self-neutralization mid-body aborts it instead of being deferred
       to the exit — Algorithm 6's bug, reintroduced on purpose. *)
    body ()
  else if Atomic.get h.l.status <> st_incs then body ()
  else mask_in_cs h body

(* Pop every segment stamped ≤ limit and run it (Algorithm 5 line 34).
   Surviving segments go back with one CAS before any entry runs. *)
let run_expired d limit =
  match Segstack.take_all d.tasks with
  | None -> 0
  | Some _ as chain ->
      let expired, kept = Segstack.split chain (fun e -> e <= limit) in
      Segstack.push_chain d.tasks kept;
      let n = Segstack.total expired in
      Segstack.iter expired d.execute;
      n

(* Quarantine a participant whose box answered [Dead_receiver]: it is a
   confirmed crash (never runs again, never dereferences again), so its
   frozen epoch may stop blocking advancement.  Its record leaves the
   registry, and every queued batch its announced epoch could still pin
   (tag ≤ current global) moves to the [leaked] parking lot — leaked
   because we must never run a task a dead-but-pinning reader protects,
   bounded because no new batch can acquire a tag the dead reader pins.
   Quarantining a LIVE reader would be a use-after-free: only the crash
   registry's verdict, never a timeout, reaches this path. *)
let quarantine d l =
  if Atomic.compare_and_set l.quarantined false true then begin
    Stats.Counter.incr d.quarantines;
    Trace.emit Trace.Participant_quarantined l.box.Signal.owner_tid;
    Registry.Participants.remove_where d.participants (fun l' -> l' == l);
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
    Stats.Counter.incr d.signals;
    let seq = Signal.next_seq () in
    Trace.emit2 Trace.Signal_sent l.box.Signal.owner_tid seq;
    match Signal.send ~seq ~domain:(Dom.id d.meta) l.box ~is_out with
    | Signal.Delivered -> true
    | Signal.Dead_receiver ->
        quarantine d l;
        true
    | Signal.No_ack ->
        Stats.Counter.incr d.signal_timeouts;
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
   Quarantined witnesses never count: their announcement is frozen, and
   the quarantine path already stopped them from blocking advancement. *)
let cached_violating d eg =
  Atomic.get d.lag_epoch = eg
  && (match Atomic.get d.lag_local with
     | None -> false
     | Some l ->
         (not (Atomic.get l.quarantined))
         &&
         let e = Atomic.get l.epoch in
         e <> -1 && e < eg)

let cache_witness d eg l =
  Atomic.set d.lag_local (Some l);
  Atomic.set d.lag_epoch eg

(* Flush the local batch and try to advance the epoch, signaling lagging
   readers once the force threshold is reached (Algorithm 5 lines 25-34).

   [forced] is the supervision entry ({!expedite}): it ignores the
   force-threshold pacing and walks laggards immediately, and it runs
   even with an EMPTY local batch as long as the global TASKS stack has
   stranded work to push through.  The ordinary flush path keeps the
   paper's semantics exactly — empty batch, no-op — so supervision never
   perturbs an unsupervised schedule. *)
let advance_with ~forced h =
  let d = h.d in
  let have_batch = not (Vec.is_empty h.ltasks) in
  if have_batch || (forced && not (Segstack.is_empty d.tasks)) then begin
    let eg = Atomic.get d.global in
    Trace.emit Trace.Flush_begin eg;
    (* 0 = advanced this round, 1 = gave up / vetoed; set where known. *)
    let outcome = ref 1 in
    if have_batch then begin
      (* SC fences around the load (line 25) are implied by SC atomics. *)
      Segstack.push_arr d.tasks ~stamp:eg (Vec.to_array h.ltasks);
      Vec.clear h.ltasks;
      h.push_cnt <- h.push_cnt + 1
    end;
    let below_force = (not forced) && h.push_cnt < d.force_threshold in
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
                Stats.Counter.incr d.signals;
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
        else begin
          if Atomic.compare_and_set d.global eg (eg + 1) then begin
            Stats.Counter.incr d.advances;
            outcome := 0;
            Trace.emit Trace.Epoch_advance (eg + 1)
          end;
          ignore (run_expired d (eg - 1) : int)
        end
      end
    end;
    Trace.emit Trace.Flush_end !outcome
  end

(** Defer (Algorithm 5 line 22) — intrusive: block + [free] ride in a
    preallocated entry; the segment stamp added at flush carries the
    epoch tag. *)
let flush_and_advance h = advance_with ~forced:false h

let defer h ?free blk =
  Vec.push h.ltasks { Retired.blk; free; stamp = 0; patches = [] };
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
    | None ->
        if Atomic.compare_and_set d.global eg (eg + 1) then begin
          Stats.Counter.incr d.advances;
          Trace.emit Trace.Epoch_advance (eg + 1)
        end;
        ignore (run_expired d (eg - 1) : int)
  end

(** Supervision entry (the watchdog's nudge rung): a forced advance that
    pushes stranded TASKS through even when this handle's own batch is
    empty, ignoring the force-threshold pacing so laggards are
    re-signaled immediately; then the same second advance attempt an
    ordinary {!flush} makes.  Never called by the paper's own paths —
    unsupervised schedules are byte-identical with or without it. *)
let expedite h =
  advance_with ~forced:true h;
  flush h

let unregister h =
  assert (not (in_cs h));
  flush h;
  Signal.detach h.l.box;
  let tid = Sched.self () in
  (if tid >= 0 && tid < Array.length h.d.locals_by_tid then
     match h.d.locals_by_tid.(tid) with
     | Some l when l == h.l -> h.d.locals_by_tid.(tid) <- None
     | _ -> ());
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
  Array.fill d.locals_by_tid 0 (Array.length d.locals_by_tid) None;
  Registry.Participants.reset d.participants;
  Atomic.set d.global 2;
  Atomic.set d.lag_epoch (-1);
  Atomic.set d.lag_local None;
  Stats.Counter.reset d.advances;
  Stats.Counter.reset d.forced;
  Stats.Counter.reset d.rollbacks;
  Stats.Counter.reset d.signals;
  Stats.Counter.reset d.signal_timeouts;
  Stats.Counter.reset d.quarantines;
  Stats.Counter.reset d.leaked_blocks;
  Stats.Gauge.reset d.lag_gauge

let stats d =
  {
    Stats.empty with
    epoch = Atomic.get d.global;
    advances = Stats.Counter.value d.advances;
    forced_advances = Stats.Counter.value d.forced;
    rollbacks = Stats.Counter.value d.rollbacks;
    signals = Stats.Counter.value d.signals;
    signal_timeouts = Stats.Counter.value d.signal_timeouts;
    quarantines = Stats.Counter.value d.quarantines;
    leaked = Stats.Counter.value d.leaked_blocks;
    max_epoch_lag = Stats.Gauge.maximum d.lag_gauge;
    max_signals_inflight = Signal.max_inflight ();
  }
