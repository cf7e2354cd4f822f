(* Property-based tests (qcheck): random operation sequences against a
   model for every data structure × a representative scheme set; link
   laws; allocator invariants. *)

module Q = QCheck
module Alloc = Hpbrcu_alloc.Alloc
module Link = Hpbrcu_core.Link
module Rng = Hpbrcu_runtime.Rng
module ISet = Set.Make (Int)

(* ---------------- op sequences vs model ---------------- *)

type op = Ins of int | Del of int | Get of int

let op_gen range =
  Q.Gen.(
    oneof
      [
        map (fun k -> Ins k) (int_bound (range - 1));
        map (fun k -> Del k) (int_bound (range - 1));
        map (fun k -> Get k) (int_bound (range - 1));
      ])

let ops_arb range = Q.make ~print:(fun ops ->
    String.concat ";"
      (List.map
         (function
           | Ins k -> Printf.sprintf "I%d" k
           | Del k -> Printf.sprintf "D%d" k
           | Get k -> Printf.sprintf "G%d" k)
         ops))
    Q.Gen.(list_size (int_range 0 400) (op_gen range))

module type MAKE = functor (S : Hpbrcu_core.Smr_intf.S) ->
  Hpbrcu_ds.Ds_intf.MAP

(* One sequential run, in a fresh domain of [scheme], must agree with
   Stdlib.Set on every result. *)
let model_agrees scheme (module M : MAKE) ops =
  Test_util.with_scheme scheme @@ fun (module S) ->
  let module L = M (S) in
  let t = L.create () in
  let s = L.session t in
  let model = ref ISet.empty in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Ins k ->
          let e = not (ISet.mem k !model) in
          if L.insert t s k k <> e then ok := false;
          model := ISet.add k !model
      | Del k ->
          let e = ISet.mem k !model in
          if L.remove t s k <> e then ok := false;
          model := ISet.remove k !model
      | Get k -> if L.get t s k <> ISet.mem k !model then ok := false)
    ops;
  L.cleanup t s;
  L.close_session s;
  !ok && Alloc.uaf_count () = 0

let ds_props =
  let range = 32 in
  let mk ds make scheme =
    Q.Test.make ~count:60
      ~name:(Printf.sprintf "%s(%s)+model" ds scheme)
      (ops_arb range) (model_agrees scheme make)
  in
  let module Ds = Hpbrcu_ds in
  [
    mk "HMList" (module Ds.Hm_list.Make) "HP";
    mk "HMList" (module Ds.Hm_list.Make) "HP-BRCU";
    mk "HList" (module Ds.Harris_list.Make) "RCU";
    mk "HList" (module Ds.Harris_list.Make) "VBR";
    mk "HHSList" (module Ds.Harris_list.Make_hhs) "HP-BRCU";
    mk "HHSList" (module Ds.Harris_list.Make_hhs) "NBR";
    mk "HashMap" (module Ds.Hashmap.Make) "HP-BRCU";
    mk "SkipList" (module Ds.Skiplist.Make) "RCU";
    mk "SkipList" (module Ds.Skiplist.Make) "HP-BRCU";
    mk "NMTree" (module Ds.Nmtree.Make) "HP-BRCU";
    mk "NMTree" (module Ds.Nmtree.Make) "PEBR";
    mk "NMTree" (module Ds.Nmtree.Make) "VBR";
  ]

(* Concurrent determinism: the same fiber seed must produce the same final
   set for a fixed workload (the simulator is reproducible end to end). *)
let concurrent_deterministic =
  Q.Test.make ~count:12 ~name:"fiber-concurrent-determinism"
    Q.(int_range 1 1000)
    (fun seed ->
      let final () =
        Test_util.with_scheme "HP-BRCU" @@ fun (module S) ->
        let module L = Hpbrcu_ds.Harris_list.Make_hhs (S) in
        let t = L.create () in
        Hpbrcu_runtime.Sched.run
          (Hpbrcu_runtime.Sched.Fibers { seed; switch_every = 2 })
          ~nthreads:3
          (fun tid ->
            let s = L.session t in
            let rng = Rng.create ~seed:(tid + 100) in
            for _ = 1 to 150 do
              let k = Rng.int rng 24 in
              match Rng.int rng 3 with
              | 0 -> ignore (L.insert t s k 0 : bool)
              | 1 -> ignore (L.remove t s k : bool)
              | _ -> ignore (L.get t s k : bool)
            done;
            L.close_session s);
        let s = L.session t in
        let members = List.init 24 (fun k -> L.get t s k) in
        L.close_session s;
        members
      in
      final () = final ())

(* ---------------- link laws ---------------- *)

let link_props =
  [
    Q.Test.make ~count:200 ~name:"with_tag preserves target"
      Q.(pair (option int) (int_bound 3))
      (fun (tgt, tag) ->
        let l = Link.make tgt in
        Link.target (Link.with_tag l tag) = tgt && Link.tag (Link.with_tag l tag) = tag);
    Q.Test.make ~count:200 ~name:"same is reflexive on loads"
      Q.(option int)
      (fun tgt ->
        let c = Link.cell tgt in
        let a = Link.get c and b = Link.get c in
        Link.same a b && a == b);
    Q.Test.make ~count:200 ~name:"cas success updates, failure preserves"
      Q.(pair (option int) (option int))
      (fun (t1, t2) ->
        let c = Link.cell t1 in
        let l = Link.get c in
        let d = Link.make t2 in
        let ok = Link.cas c ~expected:l ~desired:d in
        ok
        && Link.get c == d
        && not (Link.cas c ~expected:l ~desired:(Link.make t1)));
    Q.Test.make ~count:200 ~name:"marked iff odd tag"
      Q.(int_bound 7)
      (fun tag -> Link.is_marked (Link.make ~tag None) = (tag land 1 = 1));
  ]

(* ---------------- allocator invariants ---------------- *)

let alloc_props =
  [
    Q.Test.make ~count:100 ~name:"alloc/retire/reclaim conservation"
      Q.(list_of_size Gen.(int_range 1 100) bool)
      (fun plan ->
        Alloc.reset ();
        Alloc.set_strict true;
        let blocks = List.map (fun _ -> Alloc.block ()) plan in
        List.iter2
          (fun b reclaim_it ->
            Alloc.retire b;
            if reclaim_it then Alloc.reclaim b)
          blocks plan;
        let st = Alloc.stats () in
        let reclaimed = List.length (List.filter Fun.id plan) in
        st.Alloc.allocated = List.length plan
        && st.Alloc.retired = List.length plan
        && st.Alloc.reclaimed = reclaimed
        && st.Alloc.unreclaimed = List.length plan - reclaimed
        && st.Alloc.peak_unreclaimed >= st.Alloc.unreclaimed);
    Q.Test.make ~count:100 ~name:"rng int bounds"
      Q.(pair int (int_range 1 1000))
      (fun (seed, bound) ->
        let r = Rng.create ~seed in
        let ok = ref true in
        for _ = 1 to 100 do
          let v = Rng.int r bound in
          if v < 0 || v >= bound then ok := false
        done;
        !ok);
  ]

let () =
  let to_alco = List.map (QCheck_alcotest.to_alcotest ~long:false) in
  Alcotest.run "props"
    [
      ("ds-vs-model", to_alco ds_props);
      ("determinism", to_alco [ concurrent_deterministic ]);
      ("link", to_alco link_props);
      ("alloc", to_alco alloc_props);
    ]
