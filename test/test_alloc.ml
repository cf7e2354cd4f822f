(* Simulated allocator: lifecycle transitions, UAF detection, counters,
   peak tracking, pool reuse, and the header-prefix rule of every
   structure's nodes. *)

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

(* [Pool.reuse]: reuse takes only a node retired before the caller's era,
   a reused node is reanimated at that era, and an injected [Exhaust_pool] fault makes it miss. *)
type node = { blk : Block.t }

let node_blk n = n.blk

let retired_node ~era =
  let n = { blk = Alloc.block ~recyclable:true () } in
  Block.mark_retire_era n.blk ~era;
  Alloc.retire n.blk;
  Alloc.reclaim n.blk;
  n

let test_pool_reuse () =
  reset ();
  let module Fault = Hpbrcu_runtime.Fault in
  let p = Pool.create () in
  let reuse ~era = Pool.reuse ~recycles:true p ~blk:node_blk ~era in
  let n = retired_node ~era:5 in
  Pool.release p n;
  Alcotest.(check bool) "retired this era: miss" true
    (Option.is_none (reuse ~era:5));
  Alcotest.(check int) "back in the pool" 1 (Pool.size p);
  Alcotest.(check bool) "not reanimated" true (Block.is_reclaimed n.blk);
  (* A caller's era may be stale on domains: a node retired after it (here
     at 5, against a caller that read 4) must not be born before its
     retirement. *)
  Alcotest.(check bool) "retired after the caller's era: miss" true
    (Option.is_none (reuse ~era:4));
  Alcotest.(check int) "still in the pool" 1 (Pool.size p);
  Alcotest.(check bool) "still reclaimed" true (Block.is_reclaimed n.blk);
  (match reuse ~era:6 with
  | None -> Alcotest.fail "a node from an older era must be reused"
  | Some m ->
      Alcotest.(check bool) "the pooled node" true (m == n);
      Alcotest.(check bool) "live again" true (Block.is_live n.blk);
      Alcotest.(check int) "born at the current era" 6 (Block.birth_era n.blk);
      Alcotest.(check int) "next incarnation" 1 (Block.version n.blk));
  Alcotest.(check int) "pool drained" 0 (Pool.size p);
  Pool.release p (retired_node ~era:1);
  Fault.install
    {
      Fault.label = "exhaust-pool";
      rules =
        [
          {
            Fault.site = Pool_acquire;
            tid = -1;
            start = 0;
            period = 1;
            action = Exhaust_pool;
          };
        ];
    };
  let exhausted = reuse ~era:9 in
  Fault.clear ();
  Alcotest.(check bool) "exhausted pool: miss" true (Option.is_none exhausted);
  Alcotest.(check int) "node left in the pool" 1 (Pool.size p);
  Alcotest.(check bool) "non-recycling scheme: miss" true
    (Option.is_none (Pool.reuse ~recycles:false p ~blk:node_blk ~era:9));
  Alcotest.(check int) "pool untouched" 1 (Pool.size p)

(* The header-prefix rule (DESIGN.md §9): every structure's node is its
   own block.  [Spy] passes a scheme through, recording the node every
   read reaches with its block as the structure's [hdr] projects it, and
   every block retired. *)
module Link = Hpbrcu_core.Link
module Smr_intf = Hpbrcu_core.Smr_intf
module Ds = Hpbrcu_ds
module Sched = Hpbrcu_runtime.Sched

module Spy (S : Smr_intf.S) = struct
  include S

  let reached : (Obj.t * Block.t) list ref = ref []
  let retired : Block.t list ref = ref []
  let versions : (Block.t * int) list ref = ref []  (* at each retire *)

  let read h ~src ~hdr cell =
    let l = S.read h ~src ~hdr cell in
    (match l with
    | Link.Ptr { target; _ } -> reached := (Obj.repr target, hdr target) :: !reached
    | Link.Null _ -> ());
    l

  let retire h ?patch ?claimed b =
    retired := b :: !retired;
    versions := (b, Block.version b) :: !versions;
    S.retire h ?patch ?claimed b
end

let structures =
  Test_util.structures @ [ ("HashMap", (module Ds.Hashmap.Make : Test_util.MAKE)) ]

let on_fibers f =
  Sched.run (Sched.Fibers { seed = 1; switch_every = 2 }) ~nthreads:1 (fun _ -> f ())

(* For each key inserted: the insert's nodes draw the next ids in order,
   and a [get] of the key reaches each of them, each its own block.  Then
   a remove retires nodes that reads reached, which the view shows
   [Retired]; a reclaim (HP-BRCU's, through its flush; NR never reclaims,
   so the allocator's) shows [Reclaimed], and a strict access check of
   the reclaimed node raises [Use_after_free] with the node itself. *)
let test_header_prefix scheme (module M : Test_util.MAKE) () =
  Test_util.with_scheme scheme (fun (module S) ->
      let module Sp = Spy (S) in
      let module L = M (Sp) in
      on_fibers (fun () ->
          let t = L.create () in
          let se = L.session t in
          let seen = ref [] in
          for k = 1 to 16 do
            let a0 = (Alloc.stats ()).allocated in
            Alcotest.(check bool) "insert" true (L.insert t se (k * 7 mod 17) k);
            let a1 = (Alloc.stats ()).allocated in
            Sp.reached := [];
            Alcotest.(check bool) "get" true (L.get t se (k * 7 mod 17));
            List.iter
              (fun (n, b) ->
                if Obj.repr b != n then Alcotest.fail "a node's view is not the node")
              !Sp.reached;
            for id = a0 to a1 - 1 do
              if not (List.exists (fun (_, b) -> Block.id b = id) !Sp.reached) then
                Alcotest.failf "key %d: get reached no node with id %d" k id
            done;
            seen := !Sp.reached @ !seen
          done;
          Sp.retired := [];
          Alcotest.(check bool) "remove" true (L.remove t se 7);
          L.cleanup t se;
          let views = !Sp.retired in
          Alcotest.(check bool) "retired some" true (views <> []);
          List.iter
            (fun b ->
              if not (List.exists (fun (n, _) -> n == Obj.repr b) !seen) then
                Alcotest.fail "retired a block that is not a node";
              Alcotest.(check bool) "retired" true (Block.state b = Block.Retired))
            views;
          L.close_session se;
          (* HP-BRCU's two-step retire needs epoch advances and a scan. *)
          let h = Sp.register Sp.it in
          for _ = 1 to 4 do
            Sp.flush h
          done;
          Sp.unregister h;
          if scheme = "NR" then List.iter Alloc.reclaim views;
          List.iter
            (fun b ->
              Alcotest.(check bool) "reclaimed" true (Block.is_reclaimed b);
              match Alloc.check_access b with
              | () -> Alcotest.fail "access to a reclaimed node passed"
              | exception Alloc.Use_after_free b' ->
                  Alcotest.(check bool) "the node itself" true (b' == b))
            views))

(* The external trees' leaves share one child cell (and EFRB's one
   update box), which must still hold what it was made with after a
   mixed run of inserts and removes on four fibers. *)
let test_leaf_cells scheme () =
  Test_util.with_scheme scheme (fun (module S) ->
      Test_util.stress (module Ds.Nmtree.Make (S)) ~seed:5 ();
      Test_util.stress (module Ds.Efrb_bst.Make (S)) ~seed:5 ());
  Alcotest.(check bool) "NMTree leaf cell" true
    (Link.get Ds.Nmtree.leaf_child == Link.null);
  Alcotest.(check bool) "EFRB leaf cell" true
    (Link.get Ds.Efrb_bst.leaf_child == Link.null);
  Alcotest.(check bool) "EFRB leaf update" true
    (match Atomic.get Ds.Efrb_bst.leaf_update with
    | Ds.Efrb_bst.Clean -> true
    | _ -> false)

(* Under VBR a list or skip-list node, or an NMTree leaf, goes back to
   its pool right after [retire] ([Pool.recycle]).  On a short era (4
   retirements) a fiber stress run must reanimate at least one node after
   it was retired, which no node is if the structure leaves its retire
   sites' [Pool.recycle] out: then only nodes an insert discarded
   unpublished are reused. *)
let test_vbr_recycles (module M : Test_util.MAKE) () =
  let module Schemes = Hpbrcu_schemes.Schemes in
  let config = { Hpbrcu_core.Config.default with batch = 4 } in
  Schemes.with_domain (fst (Schemes.find "VBR"), config) @@ fun (module D) ->
  Alloc.reset ();
  Alloc.set_strict true;
  let module Sp = Spy (D) in
  Test_util.stress (module M (Sp)) ~seed:5 ();
  Alcotest.(check bool) "retired some" true (!Sp.versions <> []);
  Alcotest.(check bool) "a retired node was reanimated" true
    (List.exists (fun (b, v) -> Block.version b > v) !Sp.versions)

(* An insert of a present key builds no node: it answers [false] and
   leaves the allocator's [allocated] and [abandoned] counts as they
   were (a node built before the search would bump [allocated], and
   [abandoned] when given back; under VBR a pooled one is reanimated). *)
let test_present_insert scheme (module M : Test_util.MAKE) () =
  Test_util.with_scheme scheme (fun (module S) ->
      let module L = M (S) in
      on_fibers (fun () ->
          let t = L.create () in
          let se = L.session t in
          for k = 0 to 15 do
            ignore (L.insert t se k k : bool)
          done;
          for k = 0 to 15 do
            let before = Alloc.stats () in
            Alcotest.(check bool) "present" false (L.insert t se k 0);
            let after = Alloc.stats () in
            Alcotest.(check int) "allocated" before.allocated after.allocated;
            Alcotest.(check int) "abandoned" before.abandoned after.abandoned
          done;
          L.close_session se))

(* Minor words per call of [f k], over 50 rounds of keys 0..31. *)
let words_per_call f =
  for k = 0 to 31 do
    f k
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 50 do
    for k = 0 to 31 do
      f k
    done
  done;
  (Gc.minor_words () -. w0) /. 1600.

(* Words per [get] of a present key and per [remove] of an absent one, on
   a 32-key list [B] under [scheme]. *)
let op_words (module B : Ds.Hashmap.BUCKETS) scheme =
  Test_util.with_scheme scheme (fun (module S) ->
      let module L = B (S) in
      let t = L.create () in
      let s = L.session t in
      for k = 0 to 31 do
        ignore (L.insert t s (2 * k) 0 : bool)
      done;
      let get = words_per_call (fun k -> ignore (L.get t s (2 * k) : bool)) in
      let remove =
        words_per_call (fun k -> ignore (L.remove t s ((2 * k) + 1) : bool))
      in
      L.close_session s;
      (get, remove))

(* A scheme's mediation allocates nothing per operation: a get and an
   absent-key remove, on the list the scheme runs ({!Matrix.list_for}),
   read NR's words on the same list (its cursor).  A read that builds
   its validation loop as a closure per hop reads ~109 words per get
   under HP++, and a traversal wrapped in a per-call closure ~6 more. *)
let test_op_words scheme () =
  let list =
    Hpbrcu_schemes.Schemes.with_domain
      (Hpbrcu_schemes.Schemes.find scheme)
      (fun (module D) ->
        Hpbrcu_workload.Matrix.list_for (Smr_intf.caps (module D)))
  in
  let nr_get, nr_remove = op_words list "NR" in
  let get, remove = op_words list scheme in
  let near what nr x =
    if Float.abs (x -. nr) > 0.25 then
      Alcotest.failf "%s: %.2f words per op, NR %.2f" what x nr
  in
  near "get" nr_get get;
  near "remove-absent" nr_remove remove

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
          Alcotest.test_case "reuse" `Quick test_pool_reuse;
        ] );
      ( "header-prefix",
        List.concat_map
          (fun scheme ->
            List.map
              (fun (ds, m) ->
                Alcotest.test_case (ds ^ "/" ^ scheme) `Quick
                  (test_header_prefix scheme m))
              structures
            @ [
                Alcotest.test_case ("leaf-cells/" ^ scheme) `Quick
                  (test_leaf_cells scheme);
              ])
          [ "NR"; "HP-BRCU" ]
        @ [ Alcotest.test_case "leaf-cells/VBR" `Quick (test_leaf_cells "VBR") ] );
      ( "present-insert",
        List.concat_map
          (fun scheme ->
            List.map
              (fun (ds, m) ->
                Alcotest.test_case (ds ^ "/" ^ scheme) `Quick
                  (test_present_insert scheme m))
              Test_util.structures)
          [ "NR"; "HP-BRCU"; "VBR" ] );
      ( "op-words",
        List.map
          (fun scheme ->
            Alcotest.test_case scheme `Quick (test_op_words scheme))
          [ "HP"; "HP++"; "HE"; "NBR" ] );
      ( "vbr-recycles",
        List.filter_map
          (fun (ds, m) ->
            if
              List.mem ds
                [ "HHSList"; "HMList"; "LazyList"; "SkipList"; "NMTree" ]
            then
              Some
                (Alcotest.test_case ("vbr-recycles/" ^ ds) `Quick
                   (test_vbr_recycles m))
            else None)
          Test_util.structures );
    ]
