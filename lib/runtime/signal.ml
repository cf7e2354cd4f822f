(** Cooperative simulation of POSIX per-thread signals.

    The paper neutralizes lagging readers with [pthread_kill(SIGUSR1)] and a
    handler that [siglongjmp]s out of the critical section, under the
    assumption (paper §4.1, Assumption 1) that {e the signaled thread is
    suspended before the signaling thread returns from the system call}.

    OCaml cannot asynchronously interrupt a domain at an arbitrary
    instruction, so we substitute a cooperative protocol with the same
    algebra (see DESIGN.md §2.2):

    - {!send} publishes a pending-delivery flag (SC atomic) and then blocks
      until the receiver acknowledges — this is the "suspended before the
      call returns" guarantee, turned into a handshake;
    - the receiver calls {!poll} from every scheme-mediated pointer read; a
      pending delivery runs the installed handler (which typically raises
      the scheme's [Rollback]) {e before} the read is allowed to proceed, so
      once {!send} has returned [Delivered], the receiver cannot
      dereference anything without first having executed its handler.

    The handler runs in the receiver's context, like a real signal handler.
    A receiver that is "out" (not in any critical section — analogous to a
    handler that finds [status = Out] and returns) acknowledges passively:
    {!send} also completes when [is_out ()] holds, because the paper's
    handler is a no-op in that state.

    {b Graceful degradation} (DESIGN.md §8).  [pthread_kill] can fail: the
    target may be dead ([ESRCH]) or simply never scheduled again.  The old
    [send] waited forever in that case, so one crashed reader hung every
    reclaimer.  [send] now returns an {!outcome}: [Dead_receiver] when the
    target is in {!Sched}'s crash registry, and [No_ack] when a {e bounded}
    wait with exponential backoff expires without an acknowledgement.
    Callers must treat [No_ack] as "the reader may still be running" — it
    is NOT safe to reclaim past an unacked live reader; only a confirmed
    [Dead_receiver] may be quarantined. *)

type outcome =
  | Delivered  (** the receiver ran its handler, or was observed out *)
  | Dead_receiver  (** the receiver is crashed and can never ack (ESRCH) *)
  | No_ack  (** bounded wait expired; the receiver may be live but stuck *)

type box = {
  pending : bool Atomic.t;
  not_before : int Atomic.t;
      (* virtual tick before which a delayed delivery is invisible to the
         receiver (fault injection); 0 = deliverable immediately *)
  acks : int Atomic.t;  (* deliveries handled by the receiver *)
  sent : int Atomic.t;  (* diagnostics: signals ever sent to this box *)
  posted_seq : int Atomic.t;  (* seq of the most recently posted delivery *)
  consumed_seq : int Atomic.t;  (* seq of the delivery last consumed *)
  mutable owner_tid : int;  (* for waking a stalled fiber, like EINTR *)
  domain : int Atomic.t;
      (* reclamation-domain id of the box's owner (0 = unrouted).  A send
         stamped with a different domain id is refused at this layer, so
         one domain's neutralization storm can never page another domain's
         readers even if a registry bug leaks a box across the fence. *)
  detached : bool Atomic.t;
      (* owner deregistered: later sends are the moral equivalent of ESRCH
         and a leftover pending flag is not a lost delivery *)
}

(* Every live box, for the quiescence audit below.  Boxes are created on
   the cold register path only, so a CAS-retried cons is cheap; the list is
   cleared with the rest of the telemetry between cells. *)
let all_boxes : box list Atomic.t = Atomic.make []

let rec track box =
  let old = Atomic.get all_boxes in
  if not (Atomic.compare_and_set all_boxes old (box :: old)) then track box

let make () =
  let box =
    {
      pending = Atomic.make false;
      not_before = Atomic.make 0;
      acks = Atomic.make 0;
      sent = Atomic.make 0;
      posted_seq = Atomic.make 0;
      consumed_seq = Atomic.make 0;
      owner_tid = -1;
      domain = Atomic.make 0;
      detached = Atomic.make false;
    }
  in
  track box;
  box

(** [undelivered_pending ()] — quiescence audit for the lost-signal /
    stuck-rollback oracle (DESIGN.md §11): deliveries that were posted but
    never consumed by a receiver that is not crashed.  With no drop/delay
    faults in play, every post to a live receiver is consumed at the
    receiver's next poll or critical-section exit, so after all workers
    have finished a nonzero count means a rollback request was lost. *)
let undelivered_pending () =
  List.fold_left
    (fun acc box ->
      if
        Atomic.get box.pending
        && (not (Atomic.get box.detached))
        && not (Sched.is_crashed box.owner_tid)
      then acc + 1
      else acc)
    0 (Atomic.get all_boxes)

(* --------------------- causal telemetry (DESIGN.md §10) ------------- *)

(* Global send-sequence ids correlate each send with the rollback (or
   drop) it causes: the sender stamps [Trace.Signal_sent] with the seq,
   the receiver's handler reads {!consumed_seq} and stamps its
   [Trace.Rollback] with the same value, and the analyzer joins the two.
   The counter is global (not per box) so ids are unique within a run;
   {!reset_telemetry} zeroes it between cells to keep fiber runs
   seed-deterministic. *)
let seq_counter = Atomic.make 0

(** Draw a fresh send-sequence id (1-based; 0 means "no correlation"). *)
let next_seq () = Atomic.fetch_and_add seq_counter 1 + 1

(** [consumed_seq box] — inside a handler: the send-sequence id of the
    delivery being handled.  Best-effort under back-to-back sends to the
    same box (a second post overwrites the stamp before the first handler
    runs), exact in the common one-outstanding-signal regime. *)
let consumed_seq box = Atomic.get box.consumed_seq

(** [mark_self_delivery box ~seq] — a self-neutralization runs its handler
    inline without posting a delivery (a real signal to self also runs the
    handler synchronously); stamping the consumed seq keeps the handler's
    rollback correlated to the synthetic send. *)
let mark_self_delivery box ~seq = Atomic.set box.consumed_seq seq

(* Sends posted but not yet resolved (acked, dropped, timed out): the
   "signals in flight" watermark of {!Stats.snapshot}. *)
let inflight = Atomic.make 0
let inflight_gauge = Stats.Gauge.make ()

(** Peak concurrent sends since the last {!reset_telemetry}. *)
let max_inflight () = Stats.Gauge.maximum inflight_gauge

(** Zero the seq counter, the in-flight watermark and the box registry
    (between cells). *)
let reset_telemetry () =
  Atomic.set seq_counter 0;
  Atomic.set inflight 0;
  Stats.Gauge.reset inflight_gauge;
  Atomic.set all_boxes []

(** [attach ?domain box] binds the box to the calling thread so that
    {!send} can interrupt its simulated stalls (signals interrupt blocked
    syscalls), and routes it to [domain] (sends stamped with a different
    domain id are refused). *)
let attach ?(domain = 0) box =
  box.owner_tid <- Sched.self ();
  Atomic.set box.domain domain;
  Atomic.set box.detached false

(** [detach box] — the owner is deregistering; a send that raced the
    deregistration may still post afterwards (the sender read the registry
    before the removal), and such a post is [ESRCH], not a lost delivery.
    The quiescence audit ({!undelivered_pending}) skips detached boxes. *)
let detach box = Atomic.set box.detached true

let sent box = Atomic.get box.sent
let delivered box = Atomic.get box.acks

(* A pending delivery is visible to the receiver only once the clock
   passes [not_before] (delayed-delivery fault; 0 = no floor, the normal
   case, short-circuited so fault-free polls never read a clock).  The
   floor lives on the substrate's own axis: virtual ticks under the fiber
   scheduler, [Clock.now_ns] under the Domains backend — whoever set it
   used the same axis, so the comparison is well-typed either way. *)
let[@inline] deliverable box =
  Atomic.get box.pending
  &&
  let nb = Atomic.get box.not_before in
  nb <= 0
  || (if Sched.fiber_mode () then Sched.tick () else Clock.now_ns ()) >= nb

(* Bounded-wait budgets.  Fiber mode counts virtual ticks, so the bound is
   deterministic; a live receiver polls within a handful of scheduling
   steps, so 4096 ticks is orders of magnitude above any honest ack.
   Domain mode backs off exponentially from busy-spins to capped 1 ms
   sleeps — generous against OS descheduling (a ~100 ms total budget)
   while still bounded against a genuinely hung receiver. *)
let fiber_wait_ticks = 4096
let domain_wait_rounds = 160

let wait_fiber box ~before ~is_out =
  let t0 = Sched.tick () in
  let rec go () =
    if Atomic.get box.acks > before then Delivered
    else if is_out () then Delivered
    else if Sched.is_crashed box.owner_tid then Dead_receiver
    else if Sched.tick () - t0 > fiber_wait_ticks then No_ack
    else begin
      Sched.yield_now ();
      go ()
    end
  in
  go ()

let wait_domain box ~before ~is_out =
  let attempt = ref 0 and result = ref None in
  while !result = None do
    if
      Atomic.get box.acks > before
      || (not (Atomic.get box.pending))
      || is_out ()
    then result := Some Delivered
    else if Sched.is_crashed box.owner_tid then result := Some Dead_receiver
    else if !attempt >= domain_wait_rounds then result := Some No_ack
    else begin
      Sched.check_deadline ();
      if !attempt < 64 then Domain.cpu_relax ()
      else begin
        (* 1 µs, 2 µs, 4 µs, … capped at 1 ms per round. *)
        let exp = min (!attempt - 64) 10 in
        Unix.sleepf (float_of_int (1 lsl exp) *. 1e-6)
      end;
      incr attempt
    end
  done;
  Option.get !result

(* Post one delivery to [box], or drop it when the fault plan says so
   (then [false]).  Both substrates consult the fault rules at this same
   site; only the axis of a delayed delivery's deliverable-after floor
   differs: virtual ticks under fibers, [Clock.now_ns] under domains.  A
   drop never posts, and stamps the seq so the analyzer can close the
   edge as "dropped" rather than "unmatched".  A fault-free post clears
   any floor left over from an earlier run: a stale positive floor from
   the other axis would make the post undeliverable. *)
let publish box ~seq ~not_before =
  Atomic.set box.not_before not_before;
  Atomic.set box.posted_seq seq;
  Atomic.set box.pending true;
  true

let post ~seq box ~fibers =
  if not (Fault.active ()) then publish box ~seq ~not_before:0
  else
    match Fault.on_send ~tid:box.owner_tid with
    | Some `Drop ->
        Trace.emit2 Trace.Signal_dropped box.owner_tid seq;
        false
    | Some (`Delay n) ->
        publish box ~seq
          ~not_before:
            (if fibers then Sched.tick () + n
             else Clock.now_ns () + Fault.ns_of_ticks n)
    | None -> publish box ~seq ~not_before:0

(** [send_unrouted ~seq box ~is_out] delivers a signal and reports the
    {!outcome} (the domain fence lives in {!send} below).
    [seq] (from {!next_seq}) correlates this send with the rollback it
    causes; 0 (the default) means "uncorrelated".
    Mirrors Assumption 1 of the paper ("the signaled thread is suspended
    before the signaling thread returns"):

    - In fault-free fiber mode, posting the pending flag suffices: fibers
      interleave only at yields, and every scheme places its poll and the
      subsequent memory access inside one yield-free region, so the
      receiver cannot touch memory again without first running its
      handler.  (A sleeping receiver is woken, as a signal interrupts a
      blocked syscall.)
    - When faults are active, the posted flag may have been dropped or
      delayed, so the shortcut is unsound (the scheme would reclaim under
      a reader that never saw the signal); {!send} instead waits for a
      verified acknowledgement, bounded in virtual ticks.
    - In domain mode, threads are truly parallel and the poll/access pair
      is not atomic, so the sender always waits — now with exponential
      backoff and a bounded budget instead of forever. *)
let send_unrouted ~seq box ~is_out =
  Atomic.incr box.sent;
  Stats.Gauge.observe inflight_gauge (Atomic.fetch_and_add inflight 1 + 1);
  let outcome =
    if Sched.is_crashed box.owner_tid then Dead_receiver
    else begin
      let before = Atomic.get box.acks in
      let fibers = Sched.fiber_mode () in
      let posted = post ~seq box ~fibers in
      if fibers then begin
        if box.owner_tid >= 0 then Sched.interrupt ~tid:box.owner_tid;
        if posted && not (Fault.active ()) then Delivered
        else wait_fiber box ~before ~is_out
      end
      else if posted then wait_domain box ~before ~is_out
      (* A dropped post resolves at once: the receiver will never ack,
         so a bounded wait would only burn its whole budget. *)
      else if is_out () then Delivered
      else No_ack
    end
  in
  Atomic.decr inflight;
  outcome

(** [send ?seq ?domain box ~is_out] — the routed front door.  [domain]
    (the sending domain's id) must match the box's {!attach} routing when
    both sides are routed: a mismatched send is refused without posting
    anything and reports [No_ack], so the sender treats the reader as
    possibly live (skips the round) rather than quarantining it. *)
let send ?(seq = 0) ?(domain = 0) box ~is_out =
  if
    domain <> 0
    && Atomic.get box.domain <> 0
    && Atomic.get box.domain <> domain
  then No_ack
  else send_unrouted ~seq box ~is_out

(** [poll box ~handler] — receiver side.  If a delivery is pending (and its
    injected delay, if any, has elapsed), consume it and run [handler]
    (which may raise, exactly like a [siglongjmp]ing signal handler).  The
    acknowledgement is published {e before} the handler runs so a raising
    handler still releases the sender. *)
let poll box ~handler =
  if deliverable box then begin
    Atomic.set box.pending false;
    Atomic.set box.consumed_seq (Atomic.get box.posted_seq);
    Atomic.incr box.acks;
    handler ()
  end

(** [consume_quietly box] acknowledges a pending delivery without running a
    handler; used when leaving a critical section (a late signal aimed at a
    section that already ended must not kill the next one). *)
let consume_quietly box =
  if deliverable box then begin
    Atomic.set box.pending false;
    Atomic.set box.consumed_seq (Atomic.get box.posted_seq);
    Atomic.incr box.acks
  end
