(* Harris list (HList) and HHSList: sequential model check and fiber-mode
   stress under every applicable scheme (HP excluded: optimistic traversal,
   Table 1). *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module ISet = Set.Make (Int)

let schemes =
  [ "NR"; "RCU"; "HP++"; "PEBR"; "NBR"; "NBR-Large"; "VBR"; "HP-RCU"; "HP-BRCU" ]

module Ds_sig = Hpbrcu_ds.Ds_intf

module type CHECK = sig
  val seq : unit -> unit
  val stress : seed:int -> unit -> unit
end

module Check (L : Ds_sig.MAP) = struct
  let seq () =
    let t = L.create () in
    let s = L.session t in
    let model = ref ISet.empty in
    let rng = Hpbrcu_runtime.Rng.create ~seed:7 in
    for _ = 1 to 2000 do
      let k = Hpbrcu_runtime.Rng.int rng 64 in
      match Hpbrcu_runtime.Rng.int rng 3 with
      | 0 ->
          Alcotest.(check bool)
            "insert" (not (ISet.mem k !model))
            (L.insert t s k k);
          model := ISet.add k !model
      | 1 ->
          Alcotest.(check bool) "remove" (ISet.mem k !model) (L.remove t s k);
          model := ISet.remove k !model
      | _ -> Alcotest.(check bool) "get" (ISet.mem k !model) (L.get t s k)
    done;
    L.cleanup t s;
    L.close_session s;
    Alcotest.(check int) "no UAF" 0 (Alloc.uaf_count ())

  let stress ~seed () =
    let t = L.create () in
    Sched.run
      (Sched.Fibers { seed; switch_every = 2 })
      ~nthreads:4
      (fun tid ->
        let s = L.session t in
        let rng = Hpbrcu_runtime.Rng.create ~seed:(seed + (tid * 104729)) in
        for _ = 1 to 300 do
          let k = Hpbrcu_runtime.Rng.int rng 32 in
          match Hpbrcu_runtime.Rng.int rng 3 with
          | 0 -> ignore (L.insert t s k tid : bool)
          | 1 -> ignore (L.remove t s k : bool)
          | _ -> ignore (L.get t s k : bool)
        done;
        L.close_session s);
    let s = L.session t in
    L.cleanup t s;
    L.close_session s;
    Alcotest.(check int) "no UAF" 0 (Alloc.uaf_count ())
end

let cases (flavour : string) (make_list : (module Test_util.MAKE)) =
  let module M = (val make_list) in
  List.concat_map
    (fun n ->
      let case label run =
        Alcotest.test_case (flavour ^ "/" ^ label ^ "/" ^ n) `Quick (fun () ->
            Test_util.with_scheme n (fun s ->
                let module C = Check (M ((val s))) in
                run (module C : CHECK)))
      in
      [
        case "seq" (fun (module C) -> C.seq ());
        case "stress1" (fun (module C) -> C.stress ~seed:11 ());
        case "stress2" (fun (module C) -> C.stress ~seed:12 ());
      ])
    schemes

let hlist (module S : Hpbrcu_core.Smr_intf.S) =
  (module Hpbrcu_ds.Harris_list.Make (S) : Ds_sig.MAP)

let hhslist (module S : Hpbrcu_core.Smr_intf.S) =
  (module Hpbrcu_ds.Harris_list.Make_hhs (S) : Ds_sig.MAP)

let mediation_schemes = [ "NR"; "RCU"; "HP++"; "HP-BRCU" ]

let () =
  Alcotest.run "harris_list"
    [
      ("hlist", cases "HList" (module Hpbrcu_ds.Harris_list.Make));
      ("hhslist", cases "HHSList" (module Hpbrcu_ds.Harris_list.Make_hhs));
      ( "hlist-mediations",
        Test_util.mediation_cases ~make:hlist ~entry_reads:1 mediation_schemes );
      ( "hhslist-mediations",
        Test_util.mediation_cases ~make:hhslist ~entry_reads:1 mediation_schemes );
      ("hhslist-uaf", [ Test_util.uaf_key_load_case ~make:hhslist "RCU" ]);
    ]
