(* The long-running-read workload and the harnesses built on it: exact
   pins of one deterministic cell per harness, the list each scheme runs,
   a Longrun cell under fibers, the chaos shard-isolation cells on both
   substrates, and the stall-reader garbage-over-time curve. *)

module W = Hpbrcu_workload
module Trace = Hpbrcu_runtime.Trace
module Schemes = Hpbrcu_schemes.Schemes
module Runner = Hpbrcu_check.Runner

(* ------------------------------------------------------------------ *)
(* The list pick                                                       *)
(* ------------------------------------------------------------------ *)

let picked_list scheme =
  Schemes.with_domain (Schemes.find scheme) (fun (module D) ->
      let module B =
        (val W.Matrix.list_for (Hpbrcu_core.Smr_intf.caps (module D)))
      in
      let module L = B (D) in
      List.hd (String.split_on_char '(' L.name))

let test_list_pick () =
  List.iter
    (fun scheme ->
      let want =
        if List.mem scheme [ "HP"; "HE"; "IBR" ] then "HMList" else "HHSList"
      in
      Alcotest.(check string) scheme want (picked_list scheme))
    Schemes.names

(* HashMap cells take their buckets from the same pick. *)
let test_hashmap_buckets () =
  let cell =
    W.Spec.cell ~threads:2 ~key_range:64 ~limit:(W.Spec.Ops 200)
      ~mode:(W.Spec.Fibers 3) ~seed:3 ()
  in
  List.iter
    (fun scheme ->
      match W.Matrix.run_cell ~ds:Hpbrcu_core.Caps.HashMap ~scheme cell with
      | None -> Alcotest.failf "%s must support HashMap" scheme
      | Some r -> Alcotest.(check int) (scheme ^ " uaf") 0 r.W.Spec.uaf)
    [ "HP"; "HE"; "IBR"; "HP-BRCU" ]

(* ------------------------------------------------------------------ *)
(* Longrun                                                             *)
(* ------------------------------------------------------------------ *)

let test_longrun_fibers scheme () =
  let c =
    W.Longrun.config ~key_range:256 ~readers:1 ~writers:1 ~duration:0.1
      ~mode:(W.Spec.Fibers 5) ~seed:5 ()
  in
  let out = Filename.temp_file "longrun" ".trace" in
  let o = W.Longrun.run_traced ~scheme ~out c in
  let log = Trace.read_file out in
  Sys.remove out;
  Alcotest.(check int) "uaf" 0 o.W.Longrun.uaf;
  Alcotest.(check bool) "readers progressed" true (o.W.Longrun.reader_tput > 0.);
  Alcotest.(check bool) "writers progressed" true (o.W.Longrun.writer_tput > 0.);
  let has ev = List.exists (fun r -> r.Trace.event = ev) log in
  Alcotest.(check bool) "Op_begin spans" true (has Trace.Op_begin);
  Alcotest.(check bool) "Op_end spans" true (has Trace.Op_end)

(* ------------------------------------------------------------------ *)
(* Shard isolation                                                     *)
(* ------------------------------------------------------------------ *)

let isolation_cells substrate =
  let cell topology =
    fst
      (W.Chaos.run_one ~topology ~substrate ~scheme:"RCU"
         ~plan_id:W.Chaos.Crash_reader ~seed:1 W.Chaos.quick)
  in
  (cell W.Chaos.Isolated, cell W.Chaos.Shared)

(* The fault plan's crash, not an emulation: each build sees exactly one
   crashed reader, no use-after-free and a clean census.  On domains the
   isolation ratio is the check.sh gate's to judge. *)
let test_isolation_builds substrate () =
  let isolated, shared = isolation_cells substrate in
  List.iter
    (fun (name, (c : W.Chaos.cell)) ->
      Alcotest.(check int) (name ^ " build: one crash") 1 c.crashes;
      Alcotest.(check int) (name ^ " build: uaf") 0 c.uaf;
      Alcotest.(check string) (name ^ " build: census") "" c.census_msg;
      Alcotest.(check (list string)) (name ^ " build: invariants") []
        (W.Chaos.check_cell c))
    [ ("isolated", isolated); ("shared", shared) ];
  Alcotest.(check int) "one peak per shard" W.Longrun.shards
    (Array.length isolated.dom_peaks);
  Alcotest.(check int) "one shared domain" 1 (Array.length shared.dom_peaks)

let test_isolation_verdict () =
  let isolated, shared = isolation_cells `Fibers in
  let v =
    W.Chaos.isolation
      ~threshold:(W.Chaos.isolation_threshold `Fibers)
      ~isolated ~shared
  in
  if not v.ok then
    Alcotest.failf "isolation verdict failed: %a" W.Chaos.pp_isolation v

(* ------------------------------------------------------------------ *)
(* Garbage over time under a stalled reader                            *)
(* ------------------------------------------------------------------ *)

(* The stall-reader plan parks reader 0 for 10k ticks at its 800th yield.
   From the trace alone: RCU's unreclaimed watermark balloons while the
   reader is pinned and drains once it resumes; HP-BRCU reclaims around
   it and stays near its fault-free level. *)
let test_stall_reader_curve () =
  let traced scheme =
    let c, log =
      W.Chaos.run_one ~traced:true ~substrate:`Fibers ~scheme
        ~plan_id:W.Chaos.Stall_reader ~seed:1 W.Chaos.quick
    in
    Alcotest.(check (list string)) (scheme ^ " invariants") []
      (W.Chaos.check_cell c);
    let stall_end =
      match List.find_opt (fun r -> r.Trace.event = Trace.Fault_stall) log with
      | Some r -> r.Trace.tick + r.Trace.arg
      | None -> Alcotest.failf "%s: the stall never fired" scheme
    in
    ((W.Analyze.of_records ~source:scheme log).W.Analyze.watermark, stall_end)
  in
  let peak curve = List.fold_left (fun m (_, v) -> max m v) 0 curve in
  let rcu, stall_end = traced "RCU" in
  let hb, _ = traced "HP-BRCU" in
  let rcu_max = peak rcu and hb_max = peak hb in
  if rcu_max < 5 * hb_max then
    Alcotest.failf "RCU watermark max %d < 5x HP-BRCU's %d" rcu_max hb_max;
  let drained =
    List.fold_left
      (fun m (t, v) -> if t >= stall_end then min m v else m)
      max_int rcu
  in
  if drained > rcu_max / 5 then
    Alcotest.failf "RCU drained only to %d after the stall (max %d)" drained
      rcu_max

(* ------------------------------------------------------------------ *)
(* Engine pins                                                         *)
(* ------------------------------------------------------------------ *)

(* Exact outputs of op-budgeted fiber cells, one per harness that drives
   workers through the cell engine: a chaos cell, a hunt case and a
   figure cell.  Each is a pure function of its seed, so a change to the
   engine that moves a yield, an RNG draw or the stop rule shows here. *)

let test_pin_chaos () =
  let pin scheme plan_id want =
    let c, _ =
      W.Chaos.run_one ~substrate:`Fibers ~scheme ~plan_id ~seed:1 W.Chaos.quick
    in
    Alcotest.(check (list int))
      (scheme ^ " " ^ W.Chaos.plan_name plan_id ^ ": ticks, ops, peak")
      want
      [ c.W.Chaos.ticks; c.total_ops; c.peak ]
  in
  pin "HP-BRCU" W.Chaos.Crash_reader [ 53754; 12045; 129 ];
  pin "RCU" W.Chaos.Baseline [ 43554; 12080; 67 ]

let test_pin_hunt () =
  let p = { W.Chaos.quick with writer_ops = 400 } in
  let pin scheme plan want =
    let o, _ =
      Runner.run
        {
          Runner.scheme;
          seed = 3;
          p;
          plan = W.Chaos.plan_of p plan;
          spec = Hpbrcu_check.Schedule.Rand;
        }
    in
    Alcotest.(check string) (scheme ^ " outcome") want
      (Fmt.str "%a" Runner.pp_outcome o)
  in
  pin "HP-BRCU" W.Chaos.Crash_reader
    "clean ops=845 ticks=21352 peak=32 crashes=1";
  pin "RCU" W.Chaos.Baseline "clean ops=880 ticks=21291 peak=37 crashes=0"

let test_pin_cell () =
  let cell =
    W.Spec.cell ~threads:3 ~key_range:128 ~workload:W.Spec.Read_write
      ~limit:(W.Spec.Ops 300) ~mode:(W.Spec.Fibers 7) ~seed:7 ()
  in
  match W.Matrix.run_cell ~ds:Hpbrcu_core.Caps.HHSList ~scheme:"HP-BRCU" cell with
  | None -> Alcotest.fail "HP-BRCU must support HHSList"
  | Some r ->
      let module H = Hpbrcu_runtime.Stats.Histogram in
      let g = r.W.Spec.latency.W.Spec.get in
      Alcotest.(check string) "latency unit" "tick" r.W.Spec.latency.W.Spec.unit_;
      Alcotest.(check (list int))
        "ops; get count, sum, p50, p90, p99, max"
        [ 900; 468; 11024; 20; 44; 64; 78 ]
        [ r.W.Spec.total_ops; g.H.count; g.H.sum; g.H.p50; g.H.p90; g.H.p99; g.H.max ]

(* ------------------------------------------------------------------ *)
(* Structure pins                                                      *)
(* ------------------------------------------------------------------ *)

(* Exact figures of a seeded fiber stress run of a structure that
   [smrbench trace] cannot trace (LazyList, EFRB-BST): the last fiber's
   tick, the walker steps and checkpoints, and the allocator's books.
   Four workers of 250 mixed operations over 32 keys; a change to the
   structure that moves a yield, a read, an allocation or a retire
   shows here. *)
let test_pin_structure (module M : Test_util.MAKE) scheme want () =
  Test_util.with_scheme scheme (fun (module S) ->
      let module C = Test_util.Walker_protects (S) in
      let module L = M (C) in
      let t = L.create () in
      let ticks = ref 0 in
      Hpbrcu_runtime.Sched.run
        (Hpbrcu_runtime.Sched.Fibers { seed = 11; switch_every = 2 })
        ~nthreads:4
        (fun tid ->
          let s = L.session t in
          let rng = Hpbrcu_runtime.Rng.create ~seed:(11 + (tid * 65599)) in
          for _ = 1 to 250 do
            let k = Hpbrcu_runtime.Rng.int rng 32 in
            match Hpbrcu_runtime.Rng.int rng 3 with
            | 0 -> ignore (L.insert t s k tid : bool)
            | 1 -> ignore (L.remove t s k : bool)
            | _ -> ignore (L.get t s k : bool)
          done;
          L.close_session s;
          ticks := max !ticks (Hpbrcu_runtime.Sched.tick ()));
      let steps =
        List.fold_left
          (fun n (w : _ Hpbrcu_core.Smr_intf.walker) -> n + w.steps)
          0 !C.walkers
      in
      let a = Hpbrcu_alloc.Alloc.stats () in
      Alcotest.(check (list int))
        "ticks, steps, checkpoints; allocated, retired, reclaimed, \
         abandoned, peak"
        want
        [
          !ticks;
          steps;
          !C.protects;
          a.allocated;
          a.retired;
          a.reclaimed;
          a.abandoned;
          a.peak_unreclaimed;
        ])

let structure_pins =
  let open Hpbrcu_ds in
  [
    ( "LazyList",
      (module Lazy_list.Make : Test_util.MAKE),
      "HP-BRCU",
      [ 5250; 9079; 695; 174; 158; 158; 0; 154 ] );
    ("LazyList", (module Lazy_list.Make), "VBR", [ 4389; 8768; 683; 177; 162; 162; 0; 1 ]);
    ("EFRB-BST", (module Efrb_bst.Make), "HP-BRCU", [ 4392; 6703; 689; 393; 321; 321; 4; 287 ]);
    ("EFRB-BST", (module Efrb_bst.Make), "VBR", [ 3145; 6304; 686; 367; 332; 332; 0; 1 ]);
  ]

let () =
  Alcotest.run "workload"
    [
      ( "engine pins",
        [
          Alcotest.test_case "chaos cells" `Quick test_pin_chaos;
          Alcotest.test_case "hunt cases" `Quick test_pin_hunt;
          Alcotest.test_case "figure cell" `Quick test_pin_cell;
        ] );
      ( "structure pins",
        List.map
          (fun (ds, m, scheme, want) ->
            Alcotest.test_case (ds ^ "/" ^ scheme) `Quick
              (test_pin_structure m scheme want))
          structure_pins );
      ( "list pick",
        [
          Alcotest.test_case "HMList for HP/HE/IBR only" `Quick test_list_pick;
          Alcotest.test_case "HashMap buckets" `Quick test_hashmap_buckets;
        ] );
      ( "longrun",
        List.map
          (fun s -> Alcotest.test_case s `Quick (test_longrun_fibers s))
          [ "HP"; "HP-BRCU" ] );
      ( "shards",
        [
          Alcotest.test_case "fibers fault-plan crash" `Quick
            (test_isolation_builds `Fibers);
          Alcotest.test_case "domains fault-plan crash" `Quick
            (test_isolation_builds `Domains);
          Alcotest.test_case "RCU isolation verdict" `Quick
            test_isolation_verdict;
        ] );
      ( "stall-reader",
        [ Alcotest.test_case "RCU balloons and drains" `Quick test_stall_reader_curve ]
      );
    ]
