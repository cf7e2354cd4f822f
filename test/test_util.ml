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
      f (module D.S : Hpbrcu_core.Smr_intf.S))

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
