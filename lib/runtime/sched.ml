(** Thread substrate: real domains, or a deterministic fiber simulator.

    The paper's experiments run 1–192 hardware threads.  This container has a
    single core, so the repository supports two execution modes behind one
    interface:

    - {b Domain mode} spawns real [Domain.t]s.  It measures genuine
      wall-clock throughput (schemes' per-operation overheads), but on one
      core it cannot express large thread counts or adversarial preemption.

    - {b Fiber mode} multiplexes up to {!max_threads} cooperative fibers
      (effect handlers) on the calling domain.  Scheduling is driven by a
      seeded {!Rng}, so every interleaving is reproducible from its seed.
      Fibers switch only at {!yield} points — which the reclamation schemes
      place at every mediated pointer read — so the simulator explores
      exactly the interleavings that matter to SMR correctness, including
      injected stalls ({!stall}) that model preemption of a reader mid
      critical-section.

    All cross-thread communication in the schemes uses [Atomic] operations,
    which are sequentially consistent in OCaml, so code is identical in both
    modes. *)

(** Hard cap on simulated threads; the paper's biggest sweep uses 192. *)
let max_threads = 256

type mode =
  | Domains  (** real [Domain.spawn] workers *)
  | Fibers of { seed : int; switch_every : int }
      (** deterministic simulator; a context switch is considered at every
          {!yield} with probability [1/switch_every] (1 = always switch) *)

(* ------------------------------------------------------------------ *)
(* Current-thread identity                                             *)
(* ------------------------------------------------------------------ *)

(* Shared with the Domains backend: both substrates publish the logical
   worker id through the same DLS key, so scheme code never knows which
   substrate it runs on. *)
let tid_key : int Domain.DLS.key = Backend.tid_key

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

exception Deadline
(** Raised from a {!yield} point when the armed deadline has passed.  The
    measurement harness arms it so that {e starving} operations — e.g. an
    NBR read phase that is neutralized faster than it can finish, the very
    phenomenon of Figure 1 — can be aborted; otherwise a starved worker
    would never reach its loop's stop-flag check and the benchmark could
    not terminate.  Scheme code treats it like any foreign exception:
    critical sections unwind cleanly. *)

let deadline : float Atomic.t = Atomic.make infinity

(* Paces the [gettimeofday] reads to one in 1024 yields.  Domain-local:
   under the Domains backend a shared pacing ref would be a cache line
   written by every worker on every yield — the one hot line the padding
   work removes everywhere else.  Per-domain pacing also keeps the
   guarantee meaningful: each worker checks the wall clock at least every
   1024 of {e its own} yields, instead of "somebody checks sometimes". *)
let deadline_ticker : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

(* The deadline's bit in {!Fault.hooks} is set exactly while a finite
   deadline is armed, so an unarmed domains-mode {!yield} never reads it. *)
let set_deadline t =
  Atomic.set deadline t;
  Fault.set_hook Fault.hook_deadline (t < infinity)

let clear_deadline () =
  Fault.set_hook Fault.hook_deadline false;
  Atomic.set deadline infinity

(* Virtual-tick deadline, the fiber-mode analogue of [set_deadline]: the
   wall clock is nondeterministic, so a duration-limited fiber cell could
   abort at a different virtual tick on each run of the same seed.  Tick
   deadlines make the abort point a pure function of the seed.  [max_int]
   = unarmed.  ([check_deadline] itself is defined below, after the fiber
   context, because it reads the virtual clock.) *)
let tick_deadline : int Atomic.t = Atomic.make max_int

let set_tick_deadline t = Atomic.set tick_deadline t
let clear_tick_deadline () = Atomic.set tick_deadline max_int

(* Written only by the single domain driving the fiber scheduler: the
   fiber index that ran last (-1 = none yet), the [Context_switch] event's
   arg2. *)
let last_run = ref (-1)

(** [self ()] is the logical thread id of the calling worker, or [-1] when
    called outside {!run}. *)
let self () = Domain.DLS.get tid_key

(* ------------------------------------------------------------------ *)
(* Crash registry (fiber mode)                                         *)
(* ------------------------------------------------------------------ *)

(* A crashed fiber never runs again and never unwinds, so it can never
   acknowledge a signal.  The registry is the simulator's analogue of
   [pthread_kill] returning [ESRCH]: {!Signal.send} consults it to return
   [Dead_receiver] instead of waiting forever, and the schemes use that
   escape to quarantine the dead participant (DESIGN.md §8).

   Atomics, not plain cells: [mark_crashed] is also called by domain-mode
   harnesses that abandon a worker, and [Signal.send] reads the registry
   from whichever worker is sending — under the Domains backend those are
   different OS threads.  The scheduler only writes these from the single
   driving domain, so fiber-mode behaviour is unchanged. *)
let crashed = Array.init max_threads (fun _ -> Atomic.make false)
let crashed_total = Atomic.make 0

let is_crashed tid = tid >= 0 && tid < max_threads && Atomic.get crashed.(tid)
let crashed_count () = Atomic.get crashed_total

(** [mark_crashed ~tid] records a thread as dead without scheduler help;
    used by tests and by domain-mode harnesses that abandon a worker. *)
let mark_crashed ~tid =
  if
    tid >= 0 && tid < max_threads
    && not (Atomic.exchange crashed.(tid) true)
  then Atomic.incr crashed_total

let reset_crashed () =
  Array.iter (fun c -> Atomic.set c false) crashed;
  Atomic.set crashed_total 0

(* ------------------------------------------------------------------ *)
(* Controlled scheduling (lib/check)                                   *)
(* ------------------------------------------------------------------ *)

(* The schedule explorer replaces the seeded random runnable-pick with its
   own policy (recorded replay, DFS prefix enumeration, PCT priorities).
   The chooser receives the ascending list of runnable fiber indices and
   returns a position in that list; out-of-range answers clamp to 0, so a
   stale recorded schedule can never crash the scheduler.  When no chooser
   is installed the scheduler behaves exactly as before (the chooser path
   costs one ref read per scheduling step). *)
let chooser : (int list -> int) option ref = ref None

let set_chooser f = chooser := Some f
let clear_chooser () = chooser := None

(* ------------------------------------------------------------------ *)
(* Fiber simulator                                                     *)
(* ------------------------------------------------------------------ *)

type fiber_state =
  | Start of (unit -> unit)
  | Paused of (unit, unit) Effect.Deep.continuation
  | Running
  | Done

type fiber = {
  ftid : int;
  mutable state : fiber_state;
  mutable wake_at : int;  (* virtual tick before which the fiber sleeps *)
}

type ctx = {
  fibers : fiber array;
  rng : Rng.t;
  switch_every : int;
  mutable tick : int;
  mutable current : int;          (* index of the running fiber *)
  mutable live : int;             (* fibers not yet Done *)
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
}

let ctx_ref : ctx option ref = ref None

exception Fiber_aborted
(** Raised inside surviving fibers when a sibling fails, so their handlers
    unwind; never escapes {!run}. *)

type _ Effect.t += Yield : unit Effect.t
type _ Effect.t += Stall : int -> unit Effect.t

type _ Effect.t += Crash : unit Effect.t
(** Injected by {!Fault}: the scheduler drops the continuation without
    unwinding it, so the fiber's published state (pinned epoch, in-CS
    status, protected shields) stays frozen forever — a seg-faulted
    thread, not a cleanly exiting one. *)

exception Crashed
(** Domains-mode analogue of the {!Crash} effect.  A real domain has no
    continuation to abandon, so an injected crash parks the worker in
    {!Fault.crash_park} — published state frozen, still registered —
    until every surviving worker has finished, then unwinds by raising
    this.  The Domains wrapper ({!run}) swallows it (and any
    exception a crashed worker's unwind provokes, e.g. a typed
    [Destroyed] from cleanup against a recycled domain), so the join sees
    the crash as a silent early exit, exactly like an abandoned fiber. *)

let fiber_mode () = !ctx_ref <> None

(** Virtual time in fiber mode (one tick per scheduling decision); [0] in
    domain mode.  Used by tests to bound stall durations. *)
let tick () = match !ctx_ref with Some c -> c.tick | None -> 0

let check_deadline () =
  match !ctx_ref with
  | Some c ->
      (* Fiber mode: the deterministic tick deadline decides.  The wall
         clock is consulted only when a wall deadline is actually armed
         (duration-limited cells, which are wall-bound by definition);
         ops-limited and chaos runs never arm one, so their replay is a
         pure function of the seed. *)
      if c.tick >= Atomic.get tick_deadline then begin
        Trace.emit Trace.Deadline_abort 0;
        raise Deadline
      end;
      let ticker = Domain.DLS.get deadline_ticker in
      incr ticker;
      if
        !ticker land 1023 = 0
        && Atomic.get deadline < infinity
        && Unix.gettimeofday () > Atomic.get deadline
      then begin
        Trace.emit Trace.Deadline_abort 0;
        raise Deadline
      end
  | None ->
      (* Domains: an unarmed deadline costs one atomic load; the ticker and
         the wall clock are touched only while a deadline is armed. *)
      if Atomic.get deadline < infinity then begin
        let ticker = Domain.DLS.get deadline_ticker in
        incr ticker;
        if
          !ticker land 1023 = 0
          && Unix.gettimeofday () > Atomic.get deadline
        then begin
          Trace.emit Trace.Deadline_abort 0;
          raise Deadline
        end
      end

(* The body of {!yield} whenever some hook is armed. *)
let yield_slow () =
  check_deadline ();
  match !ctx_ref with
  | Some c ->
      if Fault.active () then begin
        match Fault.on_yield ~tid:(Domain.DLS.get tid_key) with
        | Some (`Stall n) -> Effect.perform (Stall n)
        | Some `Crash -> Effect.perform Crash
        | None -> ()
      end;
      if c.switch_every <= 1 || Rng.int c.rng c.switch_every = 0 then
        Effect.perform Yield
  | None ->
      (* Domains: the same fault consult at the same site.  A stall is a
         timed park on the wall clock; a crash marks the worker dead,
         parks it pinned until the release latch opens, then unwinds via
         [Crashed] (swallowed by the backend wrapper below). *)
      if Fault.active () then begin
        let tid = Domain.DLS.get tid_key in
        match Fault.on_yield ~tid with
        | Some (`Stall n) -> Clock.sleep_ns (Fault.ns_of_ticks n)
        | Some `Crash ->
            mark_crashed ~tid;
            Trace.emit Trace.Fault_crash tid;
            Fault.crash_park ();
            raise Crashed
        | None -> ()
      end

(** [yield ()] is a potential context-switch point.  In fiber mode the
    scheduler may transfer control to another fiber.  In domain mode it
    only ticks the deadline and consults an armed fault plan: it does not
    pause, because schemes call it from every mediated read and poll, and
    a PAUSE per read would price the simulator into real-core throughput.
    A real backoff loop that wants a PAUSE on domains issues its own
    [Domain.cpu_relax] (see [Pool.backoff]); a spin loop waiting on
    another worker calls {!yield_now}.

    Inlined into every caller: while no hook is armed ({!Fault.hooks}: no
    fiber scheduler, wall deadline or fault plan) a yield is one atomic
    load and a branch.  Fiber mode always takes {!yield_slow}. *)
let[@inline] yield () = if Atomic.get Fault.hooks <> 0 then yield_slow ()

(** Unconditional switch point (fiber mode); used by spin loops so that the
    thread being waited on is guaranteed to run. *)
let yield_now () =
  check_deadline ();
  match !ctx_ref with
  | Some _ -> Effect.perform Yield
  | None -> Domain.cpu_relax ()

let cpu_relax = yield_now

(** [stall n] suspends the calling worker: [n] virtual ticks in fiber mode,
    [n] microseconds in domain mode.  Models a reader preempted by the OS —
    the adversary of every robustness experiment. *)
let stall n =
  if n <= 0 then ()
  else
    match !ctx_ref with
    | Some _ -> Effect.perform (Stall n)
    | None -> Unix.sleepf (float_of_int n *. 1e-6)

(** [spin_pause spins] — the pause after a spin loop's [spins]-th failed
    try (counted from 1), as {!wait_until} takes it: a yield in fiber mode
    and for the first 63 tries on domains, then a deadline check and a
    1 µs sleep.  For a spin that must build no [pred] closure per call
    (the lazy list's lock). *)
let spin_pause spins =
  if fiber_mode () || spins < 64 then yield_now ()
  else begin
    check_deadline ();
    Unix.sleepf 1e-6
  end

(** [wait_until pred] spins (cooperatively in fiber mode) until [pred ()]
    holds.  Fiber mode guarantees progress: each spin iteration yields
    unconditionally, advancing virtual time and thus waking sleepers.  In
    domain mode the spin backs off to a 1 µs sleep so that on an
    oversubscribed machine the waiter yields its timeslice to the thread
    it is waiting for. *)
let wait_until pred =
  let spins = ref 0 in
  while not (pred ()) do
    incr spins;
    spin_pause !spins
  done

(** [await_crash_victims plan] — the survivors' half of the domains crash
    handshake.  A fiber crash fires at a fixed point of the deterministic
    schedule; a real worker may be descheduled past it, so under domains
    every worker that is not one of [plan]'s victims ({!Fault.crash_tids})
    holds here until each victim has crash-parked pinned — the stranding
    window then covers the survivors' whole workload, as it does under
    fibers.  A no-op under fibers and for the victims themselves. *)
let await_crash_victims (plan : Fault.plan) =
  if not (fiber_mode ()) then begin
    let victims = Fault.crash_tids plan in
    let n = List.length victims in
    if n > 0 && not (List.mem (self ()) victims) then
      wait_until (fun () -> Fault.parked_count () >= n)
  end

(** [interrupt ~tid] wakes a fiber sleeping in {!stall} immediately —
    the simulator's analogue of a POSIX signal interrupting a blocked
    system call ([EINTR]).  No-op in domain mode and for running fibers. *)
let interrupt ~tid =
  match !ctx_ref with
  | Some c when tid >= 0 && tid < Array.length c.fibers ->
      let f = c.fibers.(tid) in
      if f.wake_at > c.tick then f.wake_at <- c.tick
  | _ -> ()

(* One scheduling step: pick a runnable fiber at random and run it until it
   yields, stalls, finishes, or raises. *)
let schedule_step c =
  c.tick <- c.tick + 1;
  (* Collect runnable fibers. *)
  let n = Array.length c.fibers in
  let runnable = ref [] and nrun = ref 0 and min_wake = ref max_int in
  for i = n - 1 downto 0 do
    let f = c.fibers.(i) in
    match f.state with
    | Done | Running -> ()
    | Start _ | Paused _ ->
        if f.wake_at <= c.tick then begin
          runnable := i :: !runnable;
          incr nrun
        end
        else if f.wake_at < !min_wake then min_wake := f.wake_at
  done;
  if !nrun = 0 then begin
    (* Everyone asleep: jump virtual time to the next wake-up. *)
    if !min_wake = max_int then failwith "Sched: deadlock (no runnable fiber)";
    c.tick <- !min_wake
  end
  else begin
    let pos =
      match !chooser with
      | Some f ->
          let p = f !runnable in
          if p < 0 || p >= !nrun then 0 else p
      | None -> Rng.int c.rng !nrun
    in
    let idx = List.nth !runnable pos in
    let f = c.fibers.(idx) in
    let prev = c.current in
    c.current <- idx;
    Domain.DLS.set tid_key f.ftid;
    if idx <> !last_run then begin
      (* arg2 = the fiber switched away from, so the analyzer can chain
         occupancy intervals without replaying the scheduler. *)
      Trace.emit2 Trace.Context_switch f.ftid !last_run;
      last_run := idx
    end;
    if f.wake_at > 0 then begin
      (* Resuming a fiber that was stalled: the gap between its scheduled
         wake-up and now is scheduler-induced wake latency. *)
      Trace.emit2 Trace.Wake (c.tick - f.wake_at) f.wake_at;
      f.wake_at <- 0
    end;
    let handler : (unit, unit) Effect.Deep.handler =
      {
        retc =
          (fun () ->
            f.state <- Done;
            c.live <- c.live - 1);
        exnc =
          (fun e ->
            f.state <- Done;
            c.live <- c.live - 1;
            match e with
            | Fiber_aborted -> ()
            | e ->
                if c.failure = None then
                  c.failure <- Some (f.ftid, e, Printexc.get_raw_backtrace ()));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    f.state <- Paused k)
            | Stall ticks ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    Trace.emit Trace.Stall ticks;
                    f.wake_at <- c.tick + ticks;
                    f.state <- Paused k)
            | Crash ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    (* Deliberately NOT discontinued: a crash must not run
                       finalizers or unwind critical sections.  The stack
                       is abandoned to the GC with all its published
                       atomic state still visible to the other fibers. *)
                    ignore (Sys.opaque_identity k);
                    f.state <- Done;
                    c.live <- c.live - 1;
                    Atomic.set crashed.(f.ftid) true;
                    Atomic.incr crashed_total;
                    Trace.emit Trace.Fault_crash f.ftid)
            | _ -> None);
      }
    in
    (match f.state with
    | Start body ->
        f.state <- Running;
        Effect.Deep.match_with body () handler
    | Paused k ->
        f.state <- Running;
        Effect.Deep.continue k ()
    | Running | Done -> assert false);
    c.current <- prev;
    Domain.DLS.set tid_key (-1)
  end

let run_fibers ~seed ~switch_every ~nthreads body =
  if !ctx_ref <> None then invalid_arg "Sched.run: nested fiber schedulers";
  let c =
    {
      fibers =
        Array.init nthreads (fun i ->
            { ftid = i; state = Start (fun () -> body i); wake_at = 0 });
      rng = Rng.create ~seed;
      switch_every = max 1 switch_every;
      tick = 0;
      current = -1;
      live = nthreads;
      failure = None;
    }
  in
  ctx_ref := Some c;
  Fault.set_hook Fault.hook_fibers true;
  last_run := -1;
  reset_crashed ();
  let finish () =
    ctx_ref := None;
    Fault.set_hook Fault.hook_fibers false
  in
  (try
     while c.live > 0 && c.failure = None do
       schedule_step c
     done;
     (* A fiber failed: unwind the survivors so they release nothing and the
        scheduler terminates cleanly. *)
     while c.live > 0 do
       Array.iter
         (fun f ->
           match f.state with
           | Paused k ->
               (* The deep handler's [exnc] updates [state] and [live]. *)
               f.state <- Running;
               Domain.DLS.set tid_key f.ftid;
               (try Effect.Deep.discontinue k Fiber_aborted with _ -> ());
               Domain.DLS.set tid_key (-1)
           | Start _ ->
               f.state <- Done;
               c.live <- c.live - 1
           | Running | Done -> ())
         c.fibers
     done
   with e ->
     finish ();
     raise e);
  finish ();
  match c.failure with
  | Some (_tid, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* The Domains substrate: {!Backend.spawn_domains} plus what the backend
   cannot do from below this module — clear the crash registry, arm the
   crash-release latch, and absorb crashed workers' unwinds. *)
let run_domains ~nthreads body =
  reset_crashed ();
  (* Crash-release latch: a crashed worker parks pinned in
     [Fault.crash_park] until every non-crashed worker has finished, so
     the stranding window spans the whole run and the join-time census is
     exact.  [finished] counts every worker exit (normal, failed, or
     crashed — the [Fun.protect] below guarantees it), so the latch cannot
     deadlock even if a sibling dies on a real bug. *)
  let finished = Atomic.make 0 in
  Fault.set_crash_release (fun () ->
      Atomic.get finished >= nthreads - Atomic.get crashed_total);
  Fun.protect
    ~finally:(fun () -> Fault.clear_crash_release ())
    (fun () ->
      Backend.spawn_domains ~nthreads (fun i ->
          Fun.protect
            ~finally:(fun () -> Atomic.incr finished)
            (fun () ->
              try body i with
              | Crashed -> ()
              | _ when is_crashed i -> ())))

(** [run mode ~nthreads body] runs [body 0 .. body (nthreads-1)] to
    completion as concurrent workers under [mode] and returns when all have
    finished.  Re-raises the first worker failure. *)
let run mode ~nthreads body =
  if nthreads < 1 || nthreads > max_threads then
    invalid_arg
      (Printf.sprintf "Sched.run: nthreads must be in [1, %d]" max_threads);
  match mode with
  | Domains -> run_domains ~nthreads body
  | Fibers { seed; switch_every } ->
      run_fibers ~seed ~switch_every ~nthreads body

(* Trace cannot depend on this module (we emit its events), so we inject
   the identity and clock providers here, at link time. *)
let () =
  assert (max_threads + 1 <= Flight.max_slots);
  Trace.set_clock tick;
  Trace.set_tid_provider self
