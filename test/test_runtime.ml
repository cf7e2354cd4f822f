(* Runtime substrate: RNG determinism, fiber scheduler semantics, stalls,
   interrupts, signals, deadline, counters. *)

module Sched = Hpbrcu_runtime.Sched
module Signal = Hpbrcu_runtime.Signal
module Rng = Hpbrcu_runtime.Rng
module Counter = Hpbrcu_runtime.Counter
module Fault = Hpbrcu_runtime.Fault

let outcome : Signal.outcome Alcotest.testable =
  let pp ppf (o : Signal.outcome) =
    Fmt.string ppf
      (match o with
      | Signal.Delivered -> "Delivered"
      | Signal.Dead_receiver -> "Dead_receiver"
      | Signal.No_ack -> "No_ack")
  in
  Alcotest.testable pp ( = )

(* ---------------- Rng ---------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.next a = Rng.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:5 in
  let b = Rng.split a in
  let eq = ref 0 in
  for _ = 1 to 100 do
    if Rng.next a = Rng.next b then incr eq
  done;
  Alcotest.(check bool) "split independent" true (!eq < 5)

let test_rng_uniformish () =
  let r = Rng.create ~seed:11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int r 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      if abs (c - (n / 10)) > n / 50 then
        Alcotest.failf "bucket %d skewed: %d" i c)
    buckets

(* ---------------- fiber scheduler ---------------- *)

let test_fibers_run_all () =
  let n = 32 in
  let done_ = Array.make n false in
  Sched.run (Sched.Fibers { seed = 1; switch_every = 2 }) ~nthreads:n (fun tid ->
      done_.(tid) <- true);
  Array.iteri (fun i d -> if not d then Alcotest.failf "fiber %d did not run" i) done_

let test_fibers_self () =
  Sched.run (Sched.Fibers { seed = 2; switch_every = 1 }) ~nthreads:8 (fun tid ->
      Alcotest.(check int) "self" tid (Sched.self ()));
  Alcotest.(check int) "outside" (-1) (Sched.self ())

let test_fibers_interleave () =
  (* With switching at every yield, two fibers incrementing a shared
     counter must interleave (neither finishes first entirely). *)
  let log = ref [] in
  Sched.run (Sched.Fibers { seed = 3; switch_every = 1 }) ~nthreads:2 (fun tid ->
      for _ = 1 to 50 do
        log := tid :: !log;
        Sched.yield ()
      done);
  let l = !log in
  let switches = ref 0 in
  List.iteri
    (fun i x -> if i > 0 && x <> List.nth l (i - 1) then incr switches)
    l;
  Alcotest.(check bool) "interleaved" true (!switches > 10)

let test_fibers_deterministic () =
  let trace seed =
    let log = ref [] in
    Sched.run (Sched.Fibers { seed; switch_every = 2 }) ~nthreads:4 (fun tid ->
        for _ = 1 to 20 do
          log := tid :: !log;
          Sched.yield ()
        done);
    !log
  in
  Alcotest.(check (list int)) "same seed, same schedule" (trace 5) (trace 5);
  Alcotest.(check bool) "different seed, different schedule" true (trace 5 <> trace 6)

let test_fibers_stall_wakes () =
  let woke = ref false in
  Sched.run (Sched.Fibers { seed = 4; switch_every = 1 }) ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        Sched.stall 50;
        woke := true
      end
      else for _ = 1 to 10 do Sched.yield () done);
  Alcotest.(check bool) "stalled fiber woke" true !woke

let test_fibers_exception_propagates () =
  let raised =
    try
      Sched.run (Sched.Fibers { seed = 5; switch_every = 1 }) ~nthreads:4 (fun tid ->
          if tid = 2 then failwith "boom"
          else for _ = 1 to 100 do Sched.yield () done);
      false
    with Failure m -> m = "boom"
  in
  Alcotest.(check bool) "worker failure re-raised" true raised

let test_interrupt_wakes_sleeper () =
  let t = ref max_int in
  Sched.run (Sched.Fibers { seed = 6; switch_every = 1 }) ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        Sched.stall 1_000_000;
        t := Sched.tick ()
      end
      else begin
        for _ = 1 to 5 do Sched.yield () done;
        Sched.interrupt ~tid:0
      end);
  Alcotest.(check bool) "woke early (tick far below stall)" true (!t < 100_000)

let test_domains_run_all () =
  let n = 4 in
  let counts = Array.make n 0 in
  Sched.run Sched.Domains ~nthreads:n (fun tid ->
      for _ = 1 to 1000 do
        counts.(tid) <- counts.(tid) + 1
      done);
  Array.iter (fun c -> Alcotest.(check int) "completed" 1000 c) counts

(* ---------------- signals ---------------- *)

let test_signal_delivery_fiber () =
  let box = Signal.make () in
  let handled = ref 0 in
  Sched.run (Sched.Fibers { seed = 7; switch_every = 1 }) ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        Signal.attach box;
        (* poll until delivered *)
        while !handled = 0 do
          Signal.poll box ~handler:(fun () -> incr handled);
          Sched.yield ()
        done
      end
      else
        ignore (Signal.send box ~is_out:(fun () -> false) : Signal.outcome));
  Alcotest.(check int) "handler ran once" 1 !handled

let test_signal_out_receiver_releases_sender () =
  let box = Signal.make () in
  (* Receiver never polls; sender must still return because is_out. *)
  let o = ref Signal.No_ack in
  Sched.run (Sched.Fibers { seed = 8; switch_every = 1 }) ~nthreads:1 (fun _ ->
      o := Signal.send box ~is_out:(fun () -> true));
  Alcotest.(check int) "sent" 1 (Signal.sent box);
  Alcotest.check outcome "out receiver = delivered" Signal.Delivered !o

let test_signal_consume_quietly () =
  let box = Signal.make () in
  Sched.run (Sched.Fibers { seed = 9; switch_every = 1 }) ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        Signal.attach box;
        for _ = 1 to 20 do Sched.yield () done;
        Signal.consume_quietly box;
        (* After a quiet consume, no handler must fire. *)
        Signal.poll box ~handler:(fun () -> Alcotest.fail "handler after consume")
      end
      else
        ignore (Signal.send box ~is_out:(fun () -> false) : Signal.outcome))

(* Double delivery before any poll coalesces on the single pending flag:
   exactly one handler run, like POSIX signals of one signo. *)
let test_signal_double_send_coalesces () =
  let box = Signal.make () in
  let handled = ref 0 in
  Sched.run (Sched.Fibers { seed = 12; switch_every = 1 }) ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        Signal.attach box;
        (* Stay away from polls until both sends have landed. *)
        for _ = 1 to 40 do Sched.yield () done;
        Signal.poll box ~handler:(fun () -> incr handled);
        Signal.poll box ~handler:(fun () -> incr handled)
      end
      else begin
        ignore (Signal.send box ~is_out:(fun () -> false) : Signal.outcome);
        ignore (Signal.send box ~is_out:(fun () -> false) : Signal.outcome)
      end);
  Alcotest.(check int) "two sends recorded" 2 (Signal.sent box);
  Alcotest.(check int) "one coalesced delivery" 1 !handled

(* A crashed receiver can never ack: send must return Dead_receiver
   instead of hanging (the ESRCH escape of DESIGN.md §8). *)
let test_signal_dead_receiver () =
  Fault.install
    {
      Fault.label = "crash-t0";
      rules =
        [
          {
            Fault.site = Fault.Yield;
            tid = 0;
            start = 5;
            period = 0;
            action = Fault.Crash;
          };
        ];
    };
  let box = Signal.make () in
  let o = ref Signal.Delivered in
  Sched.run (Sched.Fibers { seed = 13; switch_every = 1 }) ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        Signal.attach box;
        (* Crashes at its 5th yield, well before any poll. *)
        for _ = 1 to 1000 do
          Sched.yield ()
        done
      end
      else begin
        (* Give the victim time to crash, then signal it. *)
        for _ = 1 to 50 do
          Sched.yield_now ()
        done;
        o := Signal.send box ~is_out:(fun () -> false)
      end);
  Fault.clear ();
  Alcotest.(check int) "one crash" 1 (Sched.crashed_count ());
  Alcotest.check outcome "dead receiver detected" Signal.Dead_receiver !o

(* A live receiver that never polls (and is not out) must produce No_ack
   within the bounded wait, not hang the sender forever. *)
let test_signal_no_ack_bounded () =
  (* Any active plan disables the fiber-mode post-and-return shortcut, so
     the sender takes the verified bounded wait.  The rule below injects
     nothing (start is far beyond the run's yield count). *)
  Fault.install
    {
      Fault.label = "armed-but-idle";
      rules =
        [
          {
            Fault.site = Fault.Yield;
            tid = -1;
            start = max_int;
            period = 0;
            action = Fault.Stall 1;
          };
        ];
    };
  let box = Signal.make () in
  let o = ref Signal.Delivered in
  Sched.run (Sched.Fibers { seed = 14; switch_every = 1 }) ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        Signal.attach box;
        (* Alive, in a critical section, and never polling: the worst
           case short of a crash. *)
        for _ = 1 to 20_000 do
          Sched.yield ()
        done
      end
      else o := Signal.send box ~is_out:(fun () -> false));
  Fault.clear ();
  Alcotest.check outcome "bounded wait expired" Signal.No_ack !o

(* Dropped delivery: the pending flag is never posted, the receiver's
   handler never runs, and the sender learns it got no ack. *)
let test_signal_drop_fault () =
  Fault.install
    {
      Fault.label = "drop-all";
      rules =
        [
          {
            Fault.site = Fault.Signal_send;
            tid = -1;
            start = 0;
            period = 1;
            action = Fault.Drop_signal;
          };
        ];
    };
  let box = Signal.make () in
  let handled = ref 0 in
  let o = ref Signal.Delivered in
  Sched.run (Sched.Fibers { seed = 15; switch_every = 1 }) ~nthreads:2 (fun tid ->
      if tid = 0 then begin
        Signal.attach box;
        for _ = 1 to 10_000 do
          Signal.poll box ~handler:(fun () -> incr handled);
          Sched.yield ()
        done
      end
      else o := Signal.send box ~is_out:(fun () -> false));
  let injected = Fault.injected () in
  Fault.clear ();
  Alcotest.(check int) "drop recorded" 1 injected.Fault.drops;
  Alcotest.(check int) "handler never ran" 0 !handled;
  Alcotest.check outcome "sender saw no ack" Signal.No_ack !o

(* ---------------- faults ---------------- *)

(* An injected crash freezes the fiber: code after the crash point never
   runs, the rest of the run completes, and the crash registry knows. *)
let test_fault_crash_freezes_fiber () =
  Fault.install
    {
      Fault.label = "crash-t1";
      rules =
        [
          {
            Fault.site = Fault.Yield;
            tid = 1;
            start = 10;
            period = 0;
            action = Fault.Crash;
          };
        ];
    };
  let progressed = Array.make 3 0 in
  let after_crash = ref false in
  Sched.run (Sched.Fibers { seed = 21; switch_every = 1 }) ~nthreads:3 (fun tid ->
      for _ = 1 to 100 do
        progressed.(tid) <- progressed.(tid) + 1;
        Sched.yield ()
      done;
      if tid = 1 then after_crash := true);
  let injected = Fault.injected () in
  Fault.clear ();
  Alcotest.(check int) "one crash injected" 1 injected.Fault.crashes;
  Alcotest.(check bool) "victim is registered crashed" true (Sched.is_crashed 1);
  Alcotest.(check bool) "victim stopped early" true (progressed.(1) < 100);
  Alcotest.(check bool) "victim never resumed" false !after_crash;
  Alcotest.(check int) "survivor 0 finished" 100 progressed.(0);
  Alcotest.(check int) "survivor 2 finished" 100 progressed.(2)

(* Injected stalls follow the rule's deterministic schedule and are
   reproducible: same seed, same plan, same progress log. *)
let test_fault_stall_deterministic () =
  let run () =
    Fault.install
      {
        Fault.label = "stall-storm";
        rules =
          [
            {
              Fault.site = Fault.Yield;
              tid = -1;
              start = 13;
              period = 29;
              action = Fault.Stall 97;
            };
          ];
      };
    let log = ref [] in
    Sched.run (Sched.Fibers { seed = 22; switch_every = 2 }) ~nthreads:4
      (fun tid ->
        for _ = 1 to 50 do
          log := (tid, Sched.tick ()) :: !log;
          Sched.yield ()
        done);
    let injected = Fault.injected () in
    Fault.clear ();
    (!log, injected.Fault.stalls)
  in
  let l1, s1 = run () and l2, s2 = run () in
  Alcotest.(check bool) "stalls were injected" true (s1 > 0);
  Alcotest.(check int) "same stall count" s1 s2;
  Alcotest.(check (list (pair int int))) "same progress log" l1 l2

(* Domain-mode [yield] does not pause, but it still consults an installed
   plan at every call: a [Stall] and a [Crash] rule fire at exactly their
   0-based occurrence counts. *)
let test_fault_rules_fire_domains () =
  let rule start action =
    { Fault.site = Fault.Yield; tid = 0; start; period = 0; action }
  in
  Fault.install
    {
      Fault.label = "stall-then-crash";
      rules = [ rule 10 (Fault.Stall 1); rule 20 Fault.Crash ];
    };
  let stalled_at = ref (-1) and completed = ref 0 in
  Sched.run Sched.Domains ~nthreads:1 (fun _ ->
      for i = 0 to 99 do
        let stalls = (Fault.injected ()).Fault.stalls in
        Sched.yield ();
        if (Fault.injected ()).Fault.stalls > stalls then stalled_at := i;
        completed := i + 1
      done);
  let injected = Fault.injected () in
  Fault.clear ();
  Alcotest.(check int) "stall fired at occurrence 10" 10 !stalled_at;
  Alcotest.(check int) "crash fired at occurrence 20" 20 !completed;
  Alcotest.(check int) "one crash injected" 1 injected.Fault.crashes;
  Alcotest.(check bool) "victim is registered crashed" true (Sched.is_crashed 0)

(* ---------------- deadline ---------------- *)

let test_deadline_aborts_spin () =
  Sched.set_deadline (Unix.gettimeofday () +. 0.05);
  let aborted =
    try
      Sched.run (Sched.Fibers { seed = 10; switch_every = 1 }) ~nthreads:1 (fun _ ->
          while true do
            Sched.yield ()
          done);
      false
    with Sched.Deadline -> true
  in
  Sched.clear_deadline ();
  Alcotest.(check bool) "deadline fired" true aborted

(* Domain-mode [yield] does not pause, but it still ticks the wall
   deadline, so a worker spinning on it is aborted rather than stranded. *)
let test_deadline_aborts_spin_domains () =
  Sched.set_deadline (Unix.gettimeofday () +. 0.05);
  let aborted =
    try
      Sched.run Sched.Domains ~nthreads:1 (fun _ ->
          while true do
            Sched.yield ()
          done);
      false
    with Sched.Deadline -> true
  in
  Sched.clear_deadline ();
  Alcotest.(check bool) "deadline fired" true aborted

(* An unarmed domains-mode [yield] skips the deadline ticker entirely, so
   the ticker must start counting when a deadline is armed while a worker
   is already spinning: the worker spins with none armed, the main domain
   arms one ~20 ms later, and the worker must raise [Deadline].  A worker
   still spinning after 10 s gives up, failing the test instead of hanging
   it. *)
let test_deadline_armed_mid_run_domains () =
  Sched.clear_deadline ();
  let spinning = Atomic.make false in
  let runner =
    Domain.spawn (fun () ->
        try
          Sched.run Sched.Domains ~nthreads:1 (fun _ ->
              let give_up = Unix.gettimeofday () +. 10. in
              let n = ref 0 in
              Atomic.set spinning true;
              while !n land 0xffff <> 0 || Unix.gettimeofday () < give_up do
                incr n;
                Sched.yield ()
              done);
          false
        with Sched.Deadline -> true)
  in
  while not (Atomic.get spinning) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.02;
  Sched.set_deadline (Unix.gettimeofday ());
  let aborted = Domain.join runner in
  Sched.clear_deadline ();
  Alcotest.(check bool) "deadline armed mid-run fired" true aborted

(* Satellite: fiber-mode deadlines are virtual-tick-based, so the same
   seed aborts at exactly the same virtual tick on every run. *)
let test_tick_deadline_deterministic () =
  let abort_tick () =
    Sched.set_tick_deadline 5_000;
    let t = ref 0 in
    (try
       Sched.run (Sched.Fibers { seed = 23; switch_every = 2 }) ~nthreads:4
         (fun _ ->
           while true do
             t := Sched.tick ();
             Sched.yield ()
           done)
     with Sched.Deadline -> ());
    Sched.clear_tick_deadline ();
    !t
  in
  let a = abort_tick () and b = abort_tick () in
  Alcotest.(check bool) "aborted near the armed tick" true
    (a >= 4_990 && a <= 5_000);
  Alcotest.(check int) "same abort tick on replay" a b

(* ---------------- hooks word ---------------- *)

let hooks () = Atomic.get Fault.hooks

(* A one-rule plan firing [action] at thread 0's next yield. *)
let yield_plan label action =
  {
    Fault.label;
    rules =
      [ { Fault.site = Fault.Yield; tid = 0; start = 0; period = 0; action } ];
  }

(* [Fault.hooks] has exactly the bits of the armed hooks after every arm
   and disarm, a fiber run that raises included, and ends at 0. *)
let test_hooks_track_armed () =
  let fibers = Fault.hook_fibers
  and deadline = Fault.hook_deadline
  and fault = Fault.hook_fault in
  let plan = yield_plan "one-stall" (Fault.Stall 1) in
  let fibers_run body =
    Sched.run (Sched.Fibers { seed = 1; switch_every = 1 }) ~nthreads:1 body
  in
  Alcotest.(check int) "unarmed at start" 0 (hooks ());
  Sched.set_deadline (Unix.gettimeofday () +. 60.);
  Alcotest.(check int) "deadline" deadline (hooks ());
  Fault.install plan;
  Alcotest.(check int) "deadline + fault" (deadline lor fault) (hooks ());
  Fault.install { plan with rules = [] };
  Alcotest.(check int) "empty plan disarms" deadline (hooks ());
  Fault.install plan;
  Sched.clear_deadline ();
  Alcotest.(check int) "fault" fault (hooks ());
  Fault.clear ();
  Alcotest.(check int) "all clear" 0 (hooks ());
  Sched.set_deadline infinity;
  Alcotest.(check int) "infinite deadline is unarmed" 0 (hooks ());
  let inside = ref (-1) in
  fibers_run (fun _ -> inside := hooks ());
  Alcotest.(check int) "fiber run" fibers !inside;
  Alcotest.(check int) "fiber run ends" 0 (hooks ());
  Sched.set_deadline (Unix.gettimeofday () +. 60.);
  fibers_run (fun _ -> inside := hooks ());
  Alcotest.(check int) "fiber run under a deadline" (fibers lor deadline)
    !inside;
  Alcotest.(check int) "deadline outlives the run" deadline (hooks ());
  Sched.clear_deadline ();
  (try fibers_run (fun _ -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "raising fiber run ends" 0 (hooks ())

(* The unarmed domains-mode [yield] is one load of the hooks word, so a
   Yield-site crash rule installed while a worker is already spinning in
   [yield] must still fire: the worker spins with no hook armed, the main
   domain installs the rule ~20 ms later, and the worker must crash at its
   next yield (it parks, then unwinds through the backend, never reaching
   the end of its loop).  A worker still spinning after 10 s gives up,
   failing the test instead of hanging it. *)
let test_hooks_fault_armed_mid_run_domains () =
  Fault.clear ();
  let spinning = Atomic.make false and finished = Atomic.make false in
  let runner =
    Domain.spawn (fun () ->
        Sched.run Sched.Domains ~nthreads:1 (fun _ ->
            let give_up = Unix.gettimeofday () +. 10. in
            let n = ref 0 in
            Atomic.set spinning true;
            while !n land 0xffff <> 0 || Unix.gettimeofday () < give_up do
              incr n;
              Sched.yield ()
            done;
            Atomic.set finished true))
  in
  while not (Atomic.get spinning) do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.02;
  Fault.install (yield_plan "crash-mid-run" Fault.Crash);
  Domain.join runner;
  let injected = Fault.injected () in
  Fault.clear ();
  Alcotest.(check int) "one crash injected" 1 injected.Fault.crashes;
  Alcotest.(check bool) "worker crashed before finishing" false
    (Atomic.get finished);
  Alcotest.(check bool) "victim is registered crashed" true (Sched.is_crashed 0)

(* Two domains arming and disarming different hooks at once, each
   checking after every step that its own bit reads as it left it: a
   lost update would clear or resurrect the other domain's bit. *)
let test_hooks_concurrent_arming () =
  let plan = yield_plan "one-stall" (Fault.Stall 1) in
  let go = Atomic.make false in
  let toggle ~bit ~arm ~disarm =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        let stop = Unix.gettimeofday () +. 0.1 and bad = ref 0 in
        while Unix.gettimeofday () < stop do
          disarm ();
          if hooks () land bit <> 0 then incr bad;
          arm ();
          if hooks () land bit = 0 then incr bad
        done;
        !bad)
  in
  let d =
    toggle ~bit:Fault.hook_deadline
      ~arm:(fun () -> Sched.set_deadline (Unix.gettimeofday () +. 60.))
      ~disarm:Sched.clear_deadline
  and f =
    toggle ~bit:Fault.hook_fault
      ~arm:(fun () -> Fault.install plan)
      ~disarm:Fault.clear
  in
  Atomic.set go true;
  let bad_d = Domain.join d and bad_f = Domain.join f in
  let both = hooks () in
  Sched.clear_deadline ();
  Fault.clear ();
  Alcotest.(check int) "deadline bit never lost" 0 bad_d;
  Alcotest.(check int) "fault bit never lost" 0 bad_f;
  Alcotest.(check int) "both bits kept"
    (Fault.hook_deadline lor Fault.hook_fault)
    both;
  Alcotest.(check int) "all clear" 0 (hooks ())

(* ---------------- counters ---------------- *)

let test_counter_peak () =
  let c = Counter.make () in
  Counter.incr c;
  Counter.incr c;
  Counter.decr c;
  Counter.incr c;
  Counter.incr c;
  Alcotest.(check int) "value" 3 (Counter.get c);
  Alcotest.(check int) "peak" 3 (Counter.peak c);
  Counter.decr c;
  Counter.decr c;
  Alcotest.(check int) "peak survives decr" 3 (Counter.peak c);
  Counter.reset_peak c;
  Alcotest.(check int) "peak rearmed" 1 (Counter.peak c)

let test_counter_concurrent () =
  let c = Counter.make () in
  Sched.run (Sched.Fibers { seed = 11; switch_every = 1 }) ~nthreads:8 (fun _ ->
      for _ = 1 to 100 do
        Counter.incr c;
        Sched.yield ();
        Counter.decr c
      done);
  Alcotest.(check int) "drains to zero" 0 (Counter.get c);
  Alcotest.(check bool) "peak positive" true (Counter.peak c >= 1)

let () =
  Alcotest.run "runtime"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed-sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "uniform" `Quick test_rng_uniformish;
        ] );
      ( "fibers",
        [
          Alcotest.test_case "run-all" `Quick test_fibers_run_all;
          Alcotest.test_case "self" `Quick test_fibers_self;
          Alcotest.test_case "interleave" `Quick test_fibers_interleave;
          Alcotest.test_case "deterministic" `Quick test_fibers_deterministic;
          Alcotest.test_case "stall-wakes" `Quick test_fibers_stall_wakes;
          Alcotest.test_case "exception" `Quick test_fibers_exception_propagates;
          Alcotest.test_case "interrupt" `Quick test_interrupt_wakes_sleeper;
          Alcotest.test_case "domains" `Quick test_domains_run_all;
        ] );
      ( "signals",
        [
          Alcotest.test_case "delivery" `Quick test_signal_delivery_fiber;
          Alcotest.test_case "out-release" `Quick test_signal_out_receiver_releases_sender;
          Alcotest.test_case "consume-quietly" `Quick test_signal_consume_quietly;
          Alcotest.test_case "double-send-coalesces" `Quick
            test_signal_double_send_coalesces;
          Alcotest.test_case "dead-receiver" `Quick test_signal_dead_receiver;
          Alcotest.test_case "no-ack-bounded" `Quick test_signal_no_ack_bounded;
          Alcotest.test_case "drop-fault" `Quick test_signal_drop_fault;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash-freezes-fiber" `Quick
            test_fault_crash_freezes_fiber;
          Alcotest.test_case "stall-deterministic" `Quick
            test_fault_stall_deterministic;
          Alcotest.test_case "rules-fire-domains" `Quick
            test_fault_rules_fire_domains;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "aborts-spin" `Quick test_deadline_aborts_spin;
          Alcotest.test_case "aborts-spin-domains" `Quick
            test_deadline_aborts_spin_domains;
          Alcotest.test_case "armed-mid-run-domains" `Quick
            test_deadline_armed_mid_run_domains;
          Alcotest.test_case "tick-deterministic" `Quick
            test_tick_deadline_deterministic;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "track-armed" `Quick test_hooks_track_armed;
          Alcotest.test_case "fault-armed-mid-run-domains" `Quick
            test_hooks_fault_armed_mid_run_domains;
          Alcotest.test_case "concurrent-arming" `Quick
            test_hooks_concurrent_arming;
        ] );
      ( "counter",
        [
          Alcotest.test_case "peak" `Quick test_counter_peak;
          Alcotest.test_case "concurrent" `Quick test_counter_concurrent;
        ] );
    ]
