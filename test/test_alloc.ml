(* Simulated allocator: lifecycle transitions, UAF detection, counters,
   peak tracking, pool reuse. *)

module Alloc = Hpbrcu_alloc.Alloc
module Block = Hpbrcu_alloc.Block
module Pool = Hpbrcu_alloc.Pool

let reset () =
  Alloc.reset ();
  Alloc.set_strict true

let test_lifecycle () =
  reset ();
  let b = Alloc.block () in
  Alcotest.(check bool) "live" true (Block.is_live b);
  Alloc.retire b;
  Alcotest.(check bool) "retired" true (Block.is_retired b);
  Alloc.reclaim b;
  Alcotest.(check bool) "reclaimed" true (Block.is_reclaimed b)

let test_counters () =
  reset ();
  let bs = List.init 10 (fun _ -> Alloc.block ()) in
  List.iter Alloc.retire bs;
  let st = Alloc.stats () in
  Alcotest.(check int) "allocated" 10 st.Alloc.allocated;
  Alcotest.(check int) "retired" 10 st.Alloc.retired;
  Alcotest.(check int) "unreclaimed" 10 st.Alloc.unreclaimed;
  List.iteri (fun i b -> if i < 4 then Alloc.reclaim b) bs;
  let st = Alloc.stats () in
  Alcotest.(check int) "reclaimed" 4 st.Alloc.reclaimed;
  Alcotest.(check int) "unreclaimed now" 6 st.Alloc.unreclaimed;
  Alcotest.(check int) "peak" 10 st.Alloc.peak_unreclaimed

let test_peak_window () =
  reset ();
  let bs = List.init 5 (fun _ -> Alloc.block ()) in
  List.iter Alloc.retire bs;
  List.iter Alloc.reclaim bs;
  Alcotest.(check int) "peak before rearm" 5 (Alloc.peak_unreclaimed ());
  Alloc.reset_peak ();
  Alcotest.(check int) "peak after rearm" 0 (Alloc.peak_unreclaimed ())

let test_double_retire_raises () =
  reset ();
  let b = Alloc.block () in
  Alloc.retire b;
  Alcotest.check_raises "double retire" (Alloc.Double_retire b) (fun () ->
      Alloc.retire b)

let test_double_reclaim_raises () =
  reset ();
  let b = Alloc.block () in
  Alloc.retire b;
  Alloc.reclaim b;
  Alcotest.check_raises "double reclaim" (Alloc.Double_reclaim b) (fun () ->
      Alloc.reclaim b)

let test_uaf_detection () =
  reset ();
  let b = Alloc.block () in
  Alloc.check_access b;  (* live: fine *)
  Alloc.retire b;
  Alloc.check_access b;  (* retired but not reclaimed: still legal *)
  Alloc.reclaim b;
  Alcotest.check_raises "access after reclaim" (Alloc.Use_after_free b)
    (fun () -> Alloc.check_access b)

let test_uaf_counting_mode () =
  reset ();
  Alloc.set_strict false;
  let b = Alloc.block () in
  Alloc.retire b;
  Alloc.reclaim b;
  Alloc.check_access b;
  Alloc.check_access b;
  Alcotest.(check int) "counted" 2 (Alloc.uaf_count ());
  Alloc.set_strict true

(* [check_access]'s inlined fast path only tests the reclaimed state; the
   out-of-line slow path decides the rest.  In counting mode a reclaimed,
   poisoned, non-recyclable block bumps [uaf] and [poisoned_reads] once per
   access; a reclaimed recyclable block bumps neither. *)
let test_uaf_poisoned_counting () =
  reset ();
  Alloc.set_strict false;
  Alloc.set_poisoning true;
  let b = Alloc.block () in
  Alloc.retire b;
  Alloc.reclaim b;
  Alcotest.(check bool) "poisoned" true (Block.is_poisoned b);
  Alloc.check_access b;
  Alloc.check_access b;
  Alloc.check_access b;
  let st = Alloc.stats () in
  Alcotest.(check int) "uaf per access" 3 st.Alloc.uaf;
  Alcotest.(check int) "poisoned per access" 3 st.Alloc.poisoned_reads;
  let r = Alloc.block ~recyclable:true () in
  Alloc.retire r;
  Alloc.reclaim r;
  Alloc.check_access r;
  let st = Alloc.stats () in
  Alcotest.(check int) "recyclable: no uaf" 3 st.Alloc.uaf;
  Alcotest.(check int) "recyclable: no poisoned read" 3 st.Alloc.poisoned_reads;
  Alloc.set_poisoning false;
  Alloc.set_strict true

let test_recyclable_exempt () =
  reset ();
  let b = Alloc.block ~recyclable:true () in
  Alloc.retire b;
  Alloc.reclaim b;
  (* VBR-style reuse: access checks don't flag recyclable blocks. *)
  Alloc.check_access b;
  Alcotest.(check int) "no violation" 0 (Alloc.uaf_count ())

let test_try_retire_claims_once () =
  reset ();
  let b = Alloc.block () in
  Alcotest.(check bool) "first claim" true (Alloc.try_retire b);
  Alcotest.(check bool) "second claim" false (Alloc.try_retire b);
  Alcotest.(check int) "counted once" 1 (Alloc.stats ()).Alloc.retired

let test_reanimate () =
  reset ();
  let b = Alloc.block ~recyclable:true () in
  Alloc.retire b;
  Alloc.reclaim b;
  let v0 = Block.version b in
  Block.reanimate b ~era:9;
  Alcotest.(check bool) "live again" true (Block.is_live b);
  Alcotest.(check int) "version bumped" (v0 + 1) (Block.version b);
  Alcotest.(check int) "birth era" 9 (Block.birth_era b);
  Alcotest.(check int) "retire era cleared" (-1) (Block.retire_era b)

(* The header packs the version above the lifecycle state: a transition
   moves the state only; [reanimate] bumps the version and returns the
   block to [Live]. *)
let test_transition_keeps_version () =
  reset ();
  let b = Alloc.block ~recyclable:true () in
  let lap v =
    Alcotest.(check int) "live version" v (Block.version b);
    Alloc.retire b;
    Alcotest.(check int) "retired version" v (Block.version b);
    Alcotest.(check bool) "no retired->live" false
      (Block.transition b ~from:Block.Live ~to_:Block.Retired);
    Alcotest.(check int) "failed transition keeps version" v (Block.version b);
    Alloc.reclaim b;
    Alcotest.(check bool) "reclaimed" true (Block.is_reclaimed b);
    Alcotest.(check int) "reclaimed version" v (Block.version b);
    Block.reanimate b ~era:v;
    Alcotest.(check bool) "live again" true (Block.is_live b);
    Alcotest.(check int) "version bumped" (v + 1) (Block.version b)
  in
  List.iter lap [ 0; 1; 2; 3; 4 ]

let domains2 f =
  let d = Domain.spawn (fun () -> f 1) in
  let r0 = f 0 in
  (r0, Domain.join d)

(* Two domains race to claim the same 10k blocks: exactly one winner per
   block, and the [retired] total counts each block once. *)
let test_try_retire_race () =
  reset ();
  let n = 10_000 in
  let bs = Array.init n (fun _ -> Alloc.block ()) in
  let claim _ = Array.map Alloc.try_retire bs in
  let w0, w1 = domains2 claim in
  let winners = ref 0 in
  Array.iteri
    (fun i b0 ->
      if b0 = w1.(i) then
        Alcotest.failf "block %d: %s" i (if b0 then "two winners" else "no winner");
      if b0 || w1.(i) then incr winners)
    w0;
  Alcotest.(check int) "one winner per block" n !winners;
  Alcotest.(check int) "retired" n (Alloc.stats ()).Alloc.retired;
  Alcotest.(check int) "allocated" n (Alloc.stats ()).Alloc.allocated

(* Two domains allocating at once never hand out the same id. *)
let test_ids_distinct_across_domains () =
  reset ();
  let n = 50_000 in
  let alloc _ = Array.init n (fun _ -> Block.id (Alloc.block ())) in
  let a, b = domains2 alloc in
  let all = Array.append a b in
  Array.sort compare all;
  for i = 1 to Array.length all - 1 do
    if all.(i) = all.(i - 1) then Alcotest.failf "id %d handed out twice" all.(i)
  done;
  Alcotest.(check int) "allocated" (2 * n) (Alloc.stats ()).Alloc.allocated

(* [Alloc.reset] restarts the id sequence at 0. *)
let test_reset_restarts_ids () =
  reset ();
  let ids k = List.init k (fun _ -> Block.id (Alloc.block ())) in
  ignore (ids 5 : int list);
  Alloc.reset ();
  Alcotest.(check (list int)) "restarted at 0" [ 0; 1; 2; 3; 4 ] (ids 5)

(* ---------------- pool ---------------- *)

let test_pool_lifo () =
  let p = Pool.create () in
  Alcotest.(check bool) "empty" true (Pool.acquire p = None);
  Pool.release p 1;
  Pool.release p 2;
  Alcotest.(check (option int)) "lifo" (Some 2) (Pool.acquire p);
  Alcotest.(check (option int)) "lifo 2" (Some 1) (Pool.acquire p);
  Alcotest.(check (option int)) "drained" None (Pool.acquire p)

let test_pool_concurrent () =
  let p = Pool.create () in
  Hpbrcu_runtime.Sched.run
    (Hpbrcu_runtime.Sched.Fibers { seed = 3; switch_every = 1 })
    ~nthreads:8
    (fun tid ->
      for i = 1 to 100 do
        Pool.release p ((tid * 1000) + i);
        Hpbrcu_runtime.Sched.yield ();
        ignore (Pool.acquire p : int option)
      done);
  (* 800 releases happened; every successful acquire is counted in
     [recycled] and the rest still sit in the pool. *)
  Alcotest.(check int) "conservation" 800 (Pool.recycled p + Pool.size p)

let () =
  Alcotest.run "alloc"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "transitions" `Quick test_lifecycle;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "peak-window" `Quick test_peak_window;
          Alcotest.test_case "double-retire" `Quick test_double_retire_raises;
          Alcotest.test_case "double-reclaim" `Quick test_double_reclaim_raises;
          Alcotest.test_case "uaf-strict" `Quick test_uaf_detection;
          Alcotest.test_case "uaf-counting" `Quick test_uaf_counting_mode;
          Alcotest.test_case "uaf-poisoned-counting" `Quick test_uaf_poisoned_counting;
          Alcotest.test_case "recyclable-exempt" `Quick test_recyclable_exempt;
          Alcotest.test_case "try-retire" `Quick test_try_retire_claims_once;
          Alcotest.test_case "reanimate" `Quick test_reanimate;
          Alcotest.test_case "transition-keeps-version" `Quick
            test_transition_keeps_version;
          Alcotest.test_case "reset-restarts-ids" `Quick test_reset_restarts_ids;
        ] );
      ( "domains",
        [
          Alcotest.test_case "try-retire-race" `Quick test_try_retire_race;
          Alcotest.test_case "ids-distinct" `Quick test_ids_distinct_across_domains;
        ] );
      ( "pool",
        [
          Alcotest.test_case "lifo" `Quick test_pool_lifo;
          Alcotest.test_case "concurrent" `Quick test_pool_concurrent;
        ] );
    ]
