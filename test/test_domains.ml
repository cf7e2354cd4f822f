(* Domain-backend smoke suite (the Domains substrate of DESIGN.md §14).

   Every scheme runs a short real-[Domain.spawn] workload — two domains
   when the hardware has them, one otherwise — and must come out with
   uaf = 0 and a clean allocator census.  Typed lifecycle errors
   ([Registry.Exhausted], [Dom.Destroyed]) must behave identically on
   both substrates, and the fiber substrate must stay deterministic
   through the backend dispatch: the same traced cell run twice yields
   byte-identical event logs. *)

module W = Hpbrcu_workload
module Sched = Hpbrcu_runtime.Sched
module Backend = Hpbrcu_runtime.Backend
module Trace = Hpbrcu_runtime.Trace
module Alloc = Hpbrcu_alloc.Alloc
module Caps = Hpbrcu_core.Caps
module Config = Hpbrcu_core.Config
module SI = Hpbrcu_core.Smr_intf
module Registry = Hpbrcu_schemes.Registry
module Schemes = Hpbrcu_schemes.Schemes

(* Two domains when the box can actually run two; the harness must not
   oversubscribe a single core and call it a parallelism test. *)
let threads = if Backend.hardware_threads () >= 2 then 2 else 1

(* ------------------------------------------------------------------ *)
(* Per-scheme smoke: a short Domains-mode cell, census-clean           *)
(* ------------------------------------------------------------------ *)

let test_scheme_smoke scheme () =
  let rec try_ds = function
    | [] -> Alcotest.fail ("no supported structure for " ^ scheme)
    | ds :: rest -> (
        match
          W.Domains_bench.run_one ~scheme ~ds ~threads ~mode:W.Spec.Domains
            ~ops_per_thread:300 ~seed:9
        with
        | None -> try_ds rest
        | Some r ->
            Alcotest.(check int) "uaf" 0 r.W.Spec.uaf;
            let ok, msg = Alloc.census () in
            Alcotest.(check string) "census" "" msg;
            Alcotest.(check bool) "census ok" true ok)
  in
  try_ds W.Domains_bench.default_dss

(* ------------------------------------------------------------------ *)
(* Typed errors: identical on both substrates                          *)
(* ------------------------------------------------------------------ *)

let on_fibers body =
  Sched.run (Sched.Fibers { seed = 1; switch_every = 4 }) ~nthreads:1 body

let on_domains body = Sched.run Sched.Domains ~nthreads:1 body

(* Raises unless exhaustion surfaces as the typed [Registry.Exhausted]
   (for both the shield table and the participants table). *)
let exhaust_check _tid =
  let t = Registry.Shields.create () in
  let shields =
    Array.init Registry.Shields.max_shields (fun _ ->
        Registry.Shields.alloc t)
  in
  (match Registry.Shields.alloc t with
  | exception Registry.Exhausted _ -> ()
  | _ -> failwith "expected typed Exhausted from Shields.alloc");
  Array.iter Registry.Shields.release shields;
  let pt = Registry.Participants.create () in
  for i = 1 to Registry.Participants.capacity do
    ignore (Registry.Participants.add pt i : int)
  done;
  match Registry.Participants.add pt 0 with
  | exception Registry.Exhausted _ -> ()
  | _ -> failwith "expected typed Exhausted from Participants.add"

(* Two domains claim 600 shields each at once, so the table's second
   1024-slot chunk is built while the other side is allocating, and
   protect distinct blocks: one snapshot after the join holds all 1200.
   The same two workers bump one stats counter 100k times each, and the
   lane sum reads exactly 200k. *)
let test_shields_across_chunks () =
  let module S = Registry.Shields in
  let module Idset = Hpbrcu_core.Idset in
  let module Counter = Hpbrcu_runtime.Stats.Counter in
  Alloc.reset ();
  let per = 600 and bumps = 100_000 in
  let t = S.create () in
  let blocks = Array.init (2 * per) (fun _ -> Alloc.block ()) in
  let c = Counter.make () in
  let ready = Atomic.make 0 in
  let worker w () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do Domain.cpu_relax () done;
    let sh = Array.init per (fun _ -> S.alloc t) in
    Array.iteri (fun i s -> S.protect s blocks.((w * per) + i)) sh;
    for _ = 1 to bumps do Counter.incr c done
  in
  List.iter Domain.join [ Domain.spawn (worker 0); Domain.spawn (worker 1) ];
  Alcotest.(check int) "hwm" (2 * per) (Atomic.get t.Registry.Table.hwm);
  let ids = Idset.create () in
  S.snapshot t ids;
  Idset.sort ids;
  Alcotest.(check int) "snapshot holds all" (2 * per) (Idset.length ids);
  Array.iter
    (fun b ->
      if not (Idset.mem ids (Hpbrcu_alloc.Block.id b)) then
        Alcotest.failf "block %d missing from snapshot" (Hpbrcu_alloc.Block.id b))
    blocks;
  Alcotest.(check int) "counter sum" (2 * bumps) (Counter.value c);
  Alloc.reset ()

(* Two domains add 100 participants each at once, so the 64-slot chunks
   past the first are built while the other side is adding: one [iter]
   after the join visits all 200.  Then two domains race [remove_where]
   at one participant, and exactly one of them clears it. *)
let test_participants_across_chunks () =
  let module P = Registry.Participants in
  let per = 100 in
  let t = P.create () in
  let ready = Atomic.make 0 in
  let race f =
    Atomic.set ready 0;
    let worker w () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do Domain.cpu_relax () done;
      f w
    in
    List.map Domain.join [ Domain.spawn (worker 0); Domain.spawn (worker 1) ]
  in
  ignore
    (race (fun w ->
         for i = 0 to per - 1 do
           ignore (P.add t ((w * per) + i) : int)
         done)
      : unit list);
  let seen = Array.make (2 * per) 0 in
  P.iter t (fun v -> seen.(v) <- seen.(v) + 1);
  Alcotest.(check (array int)) "iter visits each once" (Array.make (2 * per) 1) seen;
  let wins = race (fun _ -> P.remove_where t (fun v -> v = per + (per / 2))) in
  Alcotest.(check int) "one ejector clears it" 1
    (List.length (List.filter Fun.id wins));
  let left = ref 0 in
  P.iter t (fun _ -> incr left);
  Alcotest.(check int) "the rest remain" ((2 * per) - 1) !left

let test_exhausted_parity () =
  on_fibers exhaust_check;
  on_domains exhaust_check

(* Raises unless a destroyed domain rejects registration and a second
   destroy with the typed [Dom.Destroyed]. *)
let destroyed_check _tid =
  let (module X : SI.SCHEME) =
    match Schemes.find_impl "RCU" with
    | Some i -> i
    | None -> failwith "RCU impl missing"
  in
  let d = X.create ~label:"test-destroyed" Config.default in
  X.destroy d;
  (match X.register d with
  | exception SI.Dom.Destroyed _ -> ()
  | _ -> failwith "expected Destroyed from register");
  match X.destroy d with
  | exception SI.Dom.Destroyed _ -> ()
  | _ -> failwith "expected Destroyed from double destroy"

let test_destroyed_parity () =
  on_fibers destroyed_check;
  on_domains destroyed_check

(* ------------------------------------------------------------------ *)
(* Scoped domains: teardown on every exit path                         *)
(* ------------------------------------------------------------------ *)

let owner_labels () = List.map (fun (_, l, _, _) -> l) (Alloc.Owner.snapshot ())

(* [Schemes.with_domain] hands out a live domain and releases its
   watermark slot when the body returns or raises. *)
let test_scoped_teardown () =
  let label = "scoped-teardown" in
  let live () = List.mem label (owner_labels ()) in
  let dom = ref None in
  let r =
    Schemes.with_domain ~label (Schemes.find "HP-BRCU") (fun (module D) ->
        Alcotest.(check bool) "slot live inside" true (live ());
        dom := Some (D.dom D.it);
        42)
  in
  Alcotest.(check int) "value through the scope" 42 r;
  Alcotest.(check bool) "slot released on return" false (live ());
  Alcotest.(check bool) "domain destroyed" true
    (SI.Dom.destroyed (Option.get !dom));
  (match
     Schemes.with_domain ~label (Schemes.find "RCU") (fun (module D) ->
         (* A registered reader left behind, as a crashed one would be. *)
         ignore (D.register D.it : D.handle);
         failwith "boom")
   with
  | () -> Alcotest.fail "the body's exception must propagate"
  | exception Failure _ -> ());
  Alcotest.(check bool) "slot released on raise" false (live ())

(* More back-to-back cells than there are watermark slots: each cell's
   scope must give its slot back. *)
let test_cells_outnumber_slots () =
  let cell i =
    W.Spec.cell ~threads:1 ~key_range:16 ~prefill:4 ~workload:W.Spec.Read_write
      ~limit:(W.Spec.Ops 2) ~mode:(W.Spec.Fibers i) ~seed:i ()
  in
  let before = List.length (Alloc.Owner.snapshot ()) in
  for i = 1 to Alloc.Owner.max_owners + 8 do
    match W.Matrix.run_cell ~ds:Caps.HHSList ~scheme:"RCU" (cell i) with
    | Some _ -> ()
    | None -> Alcotest.fail "RCU must support HHSList"
    | exception Alloc.Owner.Exhausted ->
        Alcotest.failf "watermark slots exhausted at cell %d" i
  done;
  Alcotest.(check int) "no slot left behind" before
    (List.length (Alloc.Owner.snapshot ()))

(* ------------------------------------------------------------------ *)
(* Flight recorder: merge order, drop census, file roundtrip           *)
(* ------------------------------------------------------------------ *)

module Flight = Hpbrcu_runtime.Flight

(* The armed emit ships the constructor's runtime representation as the
   on-disk code (Trace.event_code_unsafe); this pins it to the event
   table's decoder so a reordered declaration fails here, not in a
   decoded trace. *)
let test_event_code_identity () =
  List.iter
    (fun ev ->
      Alcotest.(check bool) "runtime representation decodes to itself" true
        (Trace.event_of_code (Trace.event_code_unsafe ev) = ev))
    Trace.all_events

(* Drive the trace store through the [Spool] sink's injected stamp and
   slot sources, scripted by [t] (the stamp) and [tid]; Sched's
   providers are restored afterwards. *)
let scripted ?capacity f =
  let clock = !Trace.clock and tid_provider = !Trace.tid_provider in
  let t = ref 0 and tid = ref 0 in
  Trace.set_clock (fun () -> !t);
  Trace.set_tid_provider (fun () -> !tid);
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Trace.set_clock clock;
      Trace.set_tid_provider tid_provider)
    (fun () ->
      Trace.enable ?capacity ();
      f t tid)

(* Adversarial cross-thread stamps — out-of-order between threads and
   exactly equal across them — must merge into one monotone stream,
   with equal-stamp ties broken by tid and per-thread emission order
   preserved.  The scripted stamps make the "timestamps" exact. *)
let test_flight_merge_adversarial () =
  let merged =
    scripted (fun t tid ->
        (* Each thread's own stamps are monotone, the interleaving across
           threads is not. *)
        let emit who at arg =
          tid := who;
          t := at;
          Trace.emit Trace.Retire arg
        in
        emit 0 100 1;
        emit 1 300 2;
        emit 0 500 3;
        emit 0 500 4;
        emit 1 500 5;
        Trace.dump ())
  in
  Alcotest.(check int) "all records merged" 5 (List.length merged);
  let ticks = List.map (fun r -> r.Trace.tick) merged in
  Alcotest.(check bool) "stamps monotone" true
    (List.for_all2 ( <= ) ticks (List.tl ticks @ [ max_int ]));
  (* The equal-stamp group (500) orders t0 before t1, and t0's two
     records keep their emission order. *)
  Alcotest.(check (list int)) "merge order (args)" [ 1; 2; 3; 4; 5 ]
    (List.map (fun r -> r.Trace.arg) merged);
  Alcotest.(check (list int)) "merge order (tids)" [ 0; 1; 0; 0; 1 ]
    (List.map (fun r -> r.Trace.tid) merged);
  Alcotest.(check (list int)) "virtual stamps kept verbatim"
    [ 100; 300; 500; 500; 500 ] ticks;
  (* The hardware sink rebases its calibrated ns so the earliest record
     sits at t = 0. *)
  Trace.enable ~sink:Trace.Flight ~gc:false ();
  for k = 1 to 3 do
    Trace.emit Trace.Retire k
  done;
  let hw = Trace.dump () in
  Trace.disable ();
  Alcotest.(check (list int)) "hardware records in emission order" [ 1; 2; 3 ]
    (List.map (fun r -> r.Trace.arg) hw);
  let ns = List.map (fun r -> r.Trace.tick) hw in
  Alcotest.(check int) "rebased to t = 0" 0 (List.hd ns);
  Alcotest.(check bool) "ns monotone" true
    (List.for_all2 ( <= ) ns (List.tl ns @ [ max_int ]))

(* Wraparound keeps the LAST capacity events and counts the rest:
   kept + dropped = emitted exactly, and the first survivor's seq equals
   the drop count. *)
let test_flight_drop_census () =
  scripted ~capacity:8 (fun t _ ->
      for k = 1 to 20 do
        t := k * 10;
        Trace.emit Trace.Retire k
      done;
      let merged = Trace.dump () in
      let ok, msg = Trace.flight_census () in
      Alcotest.(check int) "kept = capacity" 8 (List.length merged);
      Alcotest.(check int) "dropped" 12 (Trace.dropped ());
      Alcotest.(check string) "census msg" "" msg;
      Alcotest.(check bool) "census identity" true ok;
      match merged with
      | first :: _ ->
          Alcotest.(check int) "first survivor seq = dropped" 12 first.Trace.seq;
          Alcotest.(check int) "last 8 events survive" 13 first.Trace.arg
      | [] -> Alcotest.fail "empty merge")

(* A merged trace written with the ns unit tag must roundtrip through
   the on-disk format record-for-record, unit included. *)
let test_flight_file_roundtrip () =
  let merged =
    scripted (fun t tid ->
        for k = 1 to 6 do
          t := k * 7;
          tid := k mod 2;
          Trace.emit2 Trace.Retire k (k * k)
        done;
        Trace.dump ())
  in
  let path = Filename.temp_file "flight" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.to_file ~unit_:"ns" path merged;
      Alcotest.(check string) "unit header" "ns" (Trace.read_unit path);
      let back = Trace.read_file path in
      Alcotest.(check int) "record count" (List.length merged)
        (List.length back);
      Alcotest.(check bool) "records identical" true (merged = back))

(* ------------------------------------------------------------------ *)
(* Fiber determinism through the backend dispatch                      *)
(* ------------------------------------------------------------------ *)

let traced_cell () =
  Trace.enable ~sink:Trace.Spool ();
  let ds = Caps.HHSList in
  let log =
    W.Matrix.with_cell ~ds ~scheme:"HP-BRCU"
      (W.Domains_bench.cell_of ~ds ~threads:3 ~mode:(W.Spec.Fibers 5)
         ~ops_per_thread:150 ~seed:5)
      (fun _ -> Trace.dump ())
  in
  Trace.disable ();
  match log with
  | Some log -> List.map Trace.record_to_string log
  | None -> Alcotest.fail "HP-BRCU must support HHSList"

let test_fiber_determinism () =
  let a = traced_cell () in
  let b = traced_cell () in
  Alcotest.(check bool) "trace non-empty" true (a <> []);
  Alcotest.(check int) "event count" (List.length a) (List.length b);
  Alcotest.(check bool) "byte-identical replay" true (a = b)

(* ------------------------------------------------------------------ *)
(* Chaos on real cores (DESIGN.md §16)                                 *)
(* ------------------------------------------------------------------ *)

(* One crashed-reader chaos cell on the Domains backend: a real worker
   domain parks forever inside its critical section.  The invariants
   are the statistical ones — exactly the planned crash count, zero
   UAFs, an exact post-join census, wall-clock termination. *)
let test_chaos_domains_crash_cell () =
  let c, _ =
    W.Chaos.run_one ~substrate:`Domains ~scheme:"HP-BRCU"
      ~plan_id:W.Chaos.Crash_reader ~seed:1 W.Chaos.quick
  in
  Alcotest.(check string) "census" "" c.W.Chaos.census_msg;
  Alcotest.(check bool) "census ok" true c.W.Chaos.census_ok;
  Alcotest.(check int) "uaf" 0 c.W.Chaos.uaf;
  Alcotest.(check int) "one crash" 1 c.W.Chaos.crashes;
  Alcotest.(check bool)
    "crashed reader quarantined" true
    (c.W.Chaos.snap.Hpbrcu_runtime.Stats.quarantines >= 1);
  Alcotest.(check bool) "survivors made progress" true (c.W.Chaos.total_ops > 0);
  Alcotest.(check bool) "terminated inside the wall budget" true c.W.Chaos.terminated;
  Alcotest.(check bool) "wall clock measured" true (c.W.Chaos.wall_ns > 0);
  (match c.W.Chaos.bound with
  | None -> Alcotest.fail "HP-BRCU must declare a bound"
  | Some b ->
      Alcotest.(check bool) "bound never overshot" true (c.W.Chaos.peak <= b));
  Alcotest.(check (list string)) "the one cell check passes" []
    (W.Chaos.check_cell c)

(* The smoke corner of the grid on real domains, with tiny cells: the
   one engine's report must be clean, carry one discriminator entry per
   seed, and arm its ratio gate exactly when the box has two cores. *)
let test_chaos_domains_grid () =
  let p =
    {
      W.Chaos.quick with
      W.Chaos.key_range = 64;
      hot_width = 16;
      reader_ops = 10;
      writer_ops = 400;
    }
  in
  let r =
    W.Chaos.run_grid ~schemes:W.Chaos.smoke_schemes ~plans:W.Chaos.smoke_plans
      ~seeds:[ 1; 2 ] ~substrate:`Domains p
  in
  List.iter
    (fun ((c : W.Chaos.cell), v) ->
      Alcotest.failf "violation %s/%s seed=%d: %s" c.scheme c.plan c.seed v)
    r.W.Chaos.violations;
  Alcotest.(check int) "every cell ran" 8 (List.length r.W.Chaos.cells);
  Alcotest.(check (list int)) "one ratio per seed" [ 1; 2 ]
    (List.map (fun (seed, _, _) -> seed) r.W.Chaos.ratios);
  Alcotest.(check bool) "armed iff >= 2 cores"
    (Backend.hardware_threads () >= 2) r.W.Chaos.armed;
  Alcotest.(check int) "no replay probes on domains" 0 r.W.Chaos.probes

(* A traced stall-reader cell on real domains: the flight recorder runs
   under the chaos engine, its census joins the allocator's, and the
   analyzer draws a garbage-over-time curve from the merged ns trace. *)
let test_chaos_domains_traced_stall () =
  let c, log =
    W.Chaos.run_one ~traced:true ~substrate:`Domains ~scheme:"HP-BRCU"
      ~plan_id:W.Chaos.Stall_reader ~seed:1 W.Chaos.quick
  in
  Alcotest.(check string) "census (allocator and flight)" ""
    c.W.Chaos.census_msg;
  Alcotest.(check bool) "census ok" true c.W.Chaos.census_ok;
  Alcotest.(check int) "uaf" 0 c.W.Chaos.uaf;
  Alcotest.(check int) "the stall fired" 1
    c.W.Chaos.injected.Hpbrcu_runtime.Fault.stalls;
  let s = W.Analyze.of_records ~source:"HP-BRCU" ~unit_:"ns" log in
  Alcotest.(check bool) "watermark curve non-empty" true
    (s.W.Analyze.watermark <> [])

let () =
  let scheme_cases =
    List.map
      (fun s -> Alcotest.test_case s `Quick (test_scheme_smoke s))
      W.Domains_bench.all_scheme_names
  in
  Alcotest.run "domains"
    [
      ("scheme-smoke", scheme_cases);
      ( "typed-errors",
        [
          Alcotest.test_case "exhausted parity" `Quick test_exhausted_parity;
          Alcotest.test_case "destroyed parity" `Quick test_destroyed_parity;
        ] );
      ( "registry",
        [
          Alcotest.test_case "shields across chunks, counter lanes" `Quick
            test_shields_across_chunks;
          Alcotest.test_case "participants across chunks" `Quick
            test_participants_across_chunks;
        ] );
      ( "scoped",
        [
          Alcotest.test_case "teardown on return and raise" `Quick
            test_scoped_teardown;
          Alcotest.test_case "cells outnumber watermark slots" `Quick
            test_cells_outnumber_slots;
        ] );
      ( "flight",
        [
          Alcotest.test_case "event codes = representation" `Quick
            test_event_code_identity;
          Alcotest.test_case "adversarial ns merge monotone" `Quick
            test_flight_merge_adversarial;
          Alcotest.test_case "wraparound drop census" `Quick
            test_flight_drop_census;
          Alcotest.test_case "merged file roundtrip" `Quick
            test_flight_file_roundtrip;
        ] );
      ( "chaos-domains",
        [
          Alcotest.test_case "crashed-reader cell" `Quick
            test_chaos_domains_crash_cell;
          Alcotest.test_case "smoke grid" `Quick test_chaos_domains_grid;
          Alcotest.test_case "traced stall-reader cell" `Quick
            test_chaos_domains_traced_stall;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fiber trace byte-identical" `Quick
            test_fiber_determinism;
        ] );
    ]
