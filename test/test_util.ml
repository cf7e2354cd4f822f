(* Shared machinery for the data-structure test suites: model checking
   against Stdlib.Set and deterministic fiber-mode stress, generic in the
   data structure and scheme. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Rng = Hpbrcu_runtime.Rng
module Schemes = Hpbrcu_schemes.Schemes
module ISet = Set.Make (Int)

(* The scheme roster, by name.  [optimistic_schemes] excludes the
   hazard-pointer schemes (for data structures they cannot run, per
   Table 1). *)
let all_schemes = Schemes.names

let optimistic_schemes =
  List.filter (fun n -> not (List.mem n [ "HP"; "HE"; "IBR" ])) all_schemes

(* [with_scheme name f] — run [f] over a fresh domain of [name], with the
   allocator's counters zeroed and strict; the domain is torn down when
   [f] returns or raises. *)
let with_scheme name f =
  Schemes.with_domain (Schemes.find name) (fun (module D) ->
      Alloc.reset ();
      Alloc.set_strict true;
      f (module D : Hpbrcu_core.Smr_intf.S))

(* A structure functor, and the seven structures by name. *)
module type MAKE = functor (S : Hpbrcu_core.Smr_intf.S) ->
  Hpbrcu_ds.Ds_intf.MAP

let structures : (string * (module MAKE)) list =
  let open Hpbrcu_ds in
  [
    ("HList", (module Harris_list.Make));
    ("HHSList", (module Harris_list.Make_hhs));
    ("HMList", (module Hm_list.Make));
    ("LazyList", (module Lazy_list.Make));
    ("SkipList", (module Skiplist.Make));
    ("NMTree", (module Nmtree.Make));
    ("EFRB-BST", (module Efrb_bst.Make));
  ]

(* Random ops checked against a sequential model. *)
let seq (module L : Hpbrcu_ds.Ds_intf.MAP) ?(ops = 2000) ?(range = 64) ~seed
    () =
  let t = L.create () in
  let s = L.session t in
  let model = ref ISet.empty in
  let rng = Rng.create ~seed in
  for i = 1 to ops do
    let k = Rng.int rng range in
    match Rng.int rng 3 with
    | 0 ->
        let expect = not (ISet.mem k !model) in
        if L.insert t s k i <> expect then
          Alcotest.failf "insert %d: expected %b (op %d)" k expect i;
        model := ISet.add k !model
    | 1 ->
        let expect = ISet.mem k !model in
        if L.remove t s k <> expect then
          Alcotest.failf "remove %d: expected %b (op %d)" k expect i;
        model := ISet.remove k !model
    | _ ->
        let expect = ISet.mem k !model in
        if L.get t s k <> expect then
          Alcotest.failf "get %d: expected %b (op %d)" k expect i
  done;
  (* Final sweep: membership must match the model exactly. *)
  for k = 0 to range - 1 do
    if L.get t s k <> ISet.mem k !model then
      Alcotest.failf "final sweep: key %d mismatch" k
  done;
  L.cleanup t s;
  L.close_session s;
  Alcotest.(check int) "no UAF" 0 (Alloc.uaf_count ())

(* Deterministic concurrent stress (fiber mode).  Threads 0..w-1 write,
   the rest read; afterwards keys written by exactly one writer must
   have consistent membership and no UAF may have occurred. *)
let stress (module L : Hpbrcu_ds.Ds_intf.MAP) ?(nthreads = 4) ?(ops = 250)
    ?(range = 32) ?(stalls = false) ~seed () =
  let t = L.create () in
  Sched.run
    (Sched.Fibers { seed; switch_every = 2 })
    ~nthreads
    (fun tid ->
      let s = L.session t in
      let rng = Rng.create ~seed:(seed + (tid * 65599)) in
      for i = 1 to ops do
        if stalls && i mod 50 = 0 then Sched.stall (Rng.int rng 200);
        let k = Rng.int rng range in
        match Rng.int rng 3 with
        | 0 -> ignore (L.insert t s k tid : bool)
        | 1 -> ignore (L.remove t s k : bool)
        | _ -> ignore (L.get t s k : bool)
      done;
      L.close_session s);
  let s = L.session t in
  L.cleanup t s;
  L.close_session s;
  Alcotest.(check int) "no UAF" 0 (Alloc.uaf_count ())

(* Build the standard case list for one data structure over a scheme
   roster. *)
let standard_cases
    ~(make : (module Hpbrcu_core.Smr_intf.S) -> (module Hpbrcu_ds.Ds_intf.MAP))
    schemes =
  List.concat_map
    (fun n ->
      let case label run =
        Alcotest.test_case (label ^ "/" ^ n) `Quick (fun () ->
            with_scheme n (fun s -> run (make s)))
      in
      [
        case "seq" (fun l -> seq l ~seed:3 ());
        case "stress1" (fun l -> stress l ~seed:21 ());
        case "stress2" (fun l -> stress l ~seed:22 ());
        case "stress-stall" (fun l -> stress l ~seed:23 ~stalls:true ());
      ])
    schemes

(* ---------------- shields published per hop ---------------- *)

(* [S] with a count of the [protect] calls a data structure makes outside
   its walker's [protect] — the shields its hops publish themselves.  A
   checkpoint publishes through the walker, so it does not count. *)
module Hop_protects (S : Hpbrcu_core.Smr_intf.S) = struct
  include S

  let count = ref 0
  let in_walker_protect = ref false

  let protect sh b =
    if not !in_walker_protect then incr count;
    S.protect sh b

  let traverse h ~hold ~prot ~backup (w : S.shield Hpbrcu_core.Smr_intf.walker) =
    let protect sh =
      in_walker_protect := true;
      Fun.protect
        ~finally:(fun () -> in_walker_protect := false)
        (fun () -> w.protect sh)
    in
    S.traverse h ~hold ~prot ~backup { w with protect }
end

(* [S] with a count of its walkers' [protect] calls — the checkpoints a
   traversal publishes, the complement of [Hop_protects] — and of their
   [init] and [restore] calls, and the walkers it drove ([walkers]: each
   session's walker counts its own [steps], and none is ever reset).
   Setting [rollback_once] makes the next [walk] raise it before taking
   a step: a rollback injected before the traversal's first periodic
   checkpoint. *)
module Walker_protects (S : Hpbrcu_core.Smr_intf.S) = struct
  include S

  let protects = ref 0
  let inits = ref 0
  let restores = ref 0
  let rollback_once : exn option ref = ref None
  let walkers : S.shield Hpbrcu_core.Smr_intf.walker list ref = ref []

  let reset () =
    protects := 0;
    inits := 0;
    restores := 0

  let traverse h ~hold ~prot ~backup (w : S.shield Hpbrcu_core.Smr_intf.walker) =
    if not (List.memq w !walkers) then walkers := w :: !walkers;
    let walk n =
      match !rollback_once with
      | Some e ->
          rollback_once := None;
          raise e
      | None -> w.walk n
    in
    S.traverse h ~hold ~prot ~backup
      {
        w with
        init =
          (fun () ->
            incr inits;
            w.init ());
        walk;
        restore =
          (fun i ->
            incr restores;
            w.restore i);
        protect =
          (fun sh ->
            incr protects;
            w.protect sh);
      }
end

(* [S] with a count of the mediated accesses a data structure makes: its
   [read]s (with each one's [src], newest first) and [deref]s, and the
   steps its walkers take. *)
module Mediations (S : Hpbrcu_core.Smr_intf.S) = struct
  include S

  let reads = ref 0
  let derefs = ref 0
  let steps = ref 0
  let srcs : Hpbrcu_alloc.Block.t list ref = ref []

  let reset () =
    reads := 0;
    derefs := 0;
    steps := 0;
    srcs := []

  let read h ~src ~hdr cell =
    incr reads;
    srcs := src :: !srcs;
    S.read h ~src ~hdr cell

  let deref h b =
    incr derefs;
    S.deref h b

  let traverse h ~hold ~prot ~backup (w : S.shield Hpbrcu_core.Smr_intf.walker) =
    let s0 = w.steps in
    let r = S.traverse h ~hold ~prot ~backup w in
    steps := !steps + (w.steps - s0);
    r
end

(* One mediated access per hop: on a 64-key structure, a [get] of each of
   16 present keys makes one [read] per walker step, plus at most
   [entry_reads] reads of entry links that no step made (the head's
   link; a skip list's first link of each level), and at most one
   [deref] however far it walks: every node a step passes is the [src]
   of that step's read, whose access check covers the node's key. *)
let mediation_cases ~make ~entry_reads schemes =
  List.map
    (fun n ->
      Alcotest.test_case ("mediations/" ^ n) `Quick (fun () ->
          with_scheme n (fun (module S) ->
              let module M = Mediations (S) in
              let (module L : Hpbrcu_ds.Ds_intf.MAP) =
                make (module M : Hpbrcu_core.Smr_intf.S)
              in
              let t = L.create () in
              let s = L.session t in
              let nkeys = 64 in
              Array.iter
                (fun k -> ignore (L.insert t s k 0 : bool))
                (Rng.permutation (Rng.create ~seed:5) nkeys);
              let deepest = ref 0 in
              for i = 0 to 15 do
                let k = (i * 4) + 3 in
                M.reset ();
                if not (L.get t s k) then Alcotest.failf "get %d: key missing" k;
                let steps = !M.steps and reads = !M.reads in
                deepest := max !deepest steps;
                if !M.derefs > 1 then
                  Alcotest.failf "get %d: %d derefs over %d steps (at most 1)" k
                    !M.derefs steps;
                if reads < steps || reads > steps + entry_reads then
                  Alcotest.failf "get %d: %d reads over %d steps (%d entry reads)"
                    k reads steps entry_reads
              done;
              L.close_session s;
              (* The bound means something only if some get walked far. *)
              if !deepest < 16 then
                Alcotest.failf "deepest get took %d steps" !deepest)))
    schemes

(* The key load stays checked: a still-linked middle node of 16 whose
   block is retired and reclaimed behind the scheme's back must make a
   [get] past it raise [Use_after_free] for exactly that block, while a
   [get] that stops before it still answers.  [make] builds a list whose
   [get] of key [k] reads the links of the nodes of keys 0..k in order. *)
let uaf_key_load_case ~make name =
  Alcotest.test_case ("uaf-key-load/" ^ name) `Quick (fun () ->
      with_scheme name (fun (module S) ->
          let module M = Mediations (S) in
          let (module L : Hpbrcu_ds.Ds_intf.MAP) =
            make (module M : Hpbrcu_core.Smr_intf.S)
          in
          let t = L.create () in
          let s = L.session t in
          for k = 0 to 15 do
            ignore (L.insert t s k 0 : bool)
          done;
          M.reset ();
          ignore (L.get t s 15 : bool);
          (* The reads' [src]s, oldest first: none for the head's link,
             then the nodes of keys 0..15; the victim holds key 8. *)
          let victim = List.nth (List.rev !M.srcs) 9 in
          Alloc.retire victim;
          Alloc.reclaim victim;
          Alcotest.(check bool) "get before the victim" true (L.get t s 3);
          match L.get t s 15 with
          | exception Alloc.Use_after_free b when b == victim -> ()
          | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
          | _ -> Alcotest.fail "a get past a reclaimed node answered"))

(* [S] with a count of the [new_shield] calls made through it: the
   shields a data structure registers. *)
module New_shields (S : Hpbrcu_core.Smr_intf.S) = struct
  include S

  let count = ref 0

  let new_shield h =
    incr count;
    S.new_shield h
end

(* Hop protects per 16 [get]s of present keys, on a structure of [nkeys]
   keys inserted in a shuffled order (so a tree stays logarithmic). *)
let hop_protects ~make (module S : Hpbrcu_core.Smr_intf.S) nkeys =
  let module C = Hop_protects (S) in
  let (module L : Hpbrcu_ds.Ds_intf.MAP) = make (module C : Hpbrcu_core.Smr_intf.S) in
  let t = L.create () in
  let s = L.session t in
  let keys = Rng.permutation (Rng.create ~seed:5) nkeys in
  Array.iter (fun k -> ignore (L.insert t s k 0 : bool)) keys;
  C.count := 0;
  for i = 0 to 15 do
    let k = i * nkeys / 16 in
    if not (L.get t s k) then Alcotest.failf "get %d: key missing" k
  done;
  let n = !C.count in
  L.close_session s;
  n

(* Table 2's "no per-node overhead" as a count: under a [NoOverhead]
   scheme a hop publishes no shield, so 16 gets on a 16-key structure and
   on a 4Ki-key one make the same number of hop protects; under every
   other scheme that runs the structure the deeper gets make more. *)
let hop_shield_cases ~make ds =
  Schemes.names
  |> List.filter (fun n ->
         let (module X : Hpbrcu_core.Smr_intf.SCHEME), config = Schemes.find n in
         (X.caps config).Hpbrcu_core.Caps.supports ds <> Hpbrcu_core.Caps.No)
  |> List.map (fun n ->
         Alcotest.test_case ("hop-protects/" ^ n) `Quick (fun () ->
             with_scheme n (fun (module S) ->
                 let shallow = hop_protects ~make (module S) 16 in
                 let deep = hop_protects ~make (module S) 4096 in
                 let caps = Hpbrcu_core.Smr_intf.caps (module S) in
                 if caps.per_node = Hpbrcu_core.Caps.NoOverhead then
                   Alcotest.(check int)
                     (Printf.sprintf "NoOverhead: deep = shallow (%d)" shallow)
                     shallow deep
                 else if deep <= shallow then
                   Alcotest.failf "per-hop shields: deep %d <= shallow %d" deep
                     shallow)))
