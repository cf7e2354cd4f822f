(* Heavier integration stress: the full DS × scheme matrix driven through
   the workload harness (fiber mode, strict UAF checking, deterministic
   seeds, several thread counts), real-domain smoke runs, and many-seed
   sweeps of the trickiest pairs. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Caps = Hpbrcu_core.Caps
module W = Hpbrcu_workload
module Schemes = Hpbrcu_schemes.Schemes

(* Matrix cell through the harness: fixed op budget for determinism, then
   strict-mode accounting checks. *)
let matrix_case ds scheme nthreads =
  Alcotest.test_case
    (Printf.sprintf "%s/%s/t%d" (Caps.ds_name ds) scheme nthreads)
    `Quick
    (fun () ->
      Alloc.set_strict true;
      let cell =
        W.Spec.cell ~threads:nthreads ~key_range:64 ~workload:W.Spec.Read_write
          ~limit:(W.Spec.Ops 400)
          ~mode:(W.Spec.Fibers (nthreads * 7 + 1))
          ~seed:(nthreads * 13 + 1) ()
      in
      match W.Matrix.run_cell ~ds ~scheme cell with
      | None -> Alcotest.fail "pair unexpectedly unsupported"
      | Some r ->
          Alcotest.(check int) "no UAF" 0 r.W.Spec.uaf;
          Alcotest.(check int) "ops all ran" (400 * nthreads) r.W.Spec.total_ops)

let matrix_cases =
  List.concat_map
    (fun ds ->
      List.concat_map
        (fun scheme ->
          let (module X : Hpbrcu_core.Smr_intf.SCHEME), config =
            Schemes.find scheme
          in
          if (X.caps config).Caps.supports ds <> Caps.No then
            [ matrix_case ds scheme 2; matrix_case ds scheme 6 ]
          else [])
        W.Matrix.scheme_names)
    Caps.all_ds

(* Real domains: oversubscribed smoke per scheme on the hash map. *)
let domain_case scheme =
  Alcotest.test_case ("domains/" ^ scheme) `Quick (fun () ->
      Alloc.set_strict true;
      let cell =
        W.Spec.cell ~threads:4 ~key_range:512 ~workload:W.Spec.Read_write
          ~limit:(W.Spec.Ops 2000) ~mode:W.Spec.Domains ~seed:3 ()
      in
      match W.Matrix.run_cell ~ds:Caps.HashMap ~scheme cell with
      | None -> Alcotest.fail "unsupported"
      | Some r -> Alcotest.(check int) "no UAF" 0 r.W.Spec.uaf)

(* Seed sweep on the two most intricate pairs. *)
let seed_sweep_case name ds scheme seed =
  Alcotest.test_case (Printf.sprintf "%s/seed%d" name seed) `Quick (fun () ->
      Alloc.set_strict true;
      let cell =
        W.Spec.cell ~threads:5 ~key_range:48 ~workload:W.Spec.Write_only
          ~limit:(W.Spec.Ops 500) ~mode:(W.Spec.Fibers seed) ~seed ()
      in
      match W.Matrix.run_cell ~ds ~scheme cell with
      | None -> Alcotest.fail "unsupported"
      | Some r -> Alcotest.(check int) "no UAF" 0 r.W.Spec.uaf)

(* Reclamation accounting: after a stress run, cleanup, flushes and the
   cell domain's teardown, every retired block must be reclaimed (no
   scheme may lose track of garbage). *)
let accounting_case scheme =
  Alcotest.test_case ("accounting/" ^ scheme) `Quick (fun () ->
      Alloc.set_strict true;
      let cell =
        W.Spec.cell ~threads:4 ~key_range:64 ~workload:W.Spec.Write_only
          ~limit:(W.Spec.Ops 500) ~mode:(W.Spec.Fibers 31) ~seed:31 ()
      in
      let ds = if scheme = "HP" then Caps.HMList else Caps.HHSList in
      (match W.Matrix.run_cell ~ds ~scheme cell with
      | None -> Alcotest.fail "unsupported"
      | Some r -> Alcotest.(check int) "no UAF" 0 r.W.Spec.uaf);
      (* All sessions were closed, so the teardown reclaimed everything. *)
      let st = Alloc.stats () in
      Alcotest.(check int)
        (Printf.sprintf "retired=%d reclaimed=%d" st.Alloc.retired
           st.Alloc.reclaimed)
        st.Alloc.retired st.Alloc.reclaimed)

let () =
  Alcotest.run "stress"
    [
      ("matrix", matrix_cases);
      ("domains", List.map domain_case W.Matrix.scheme_names);
      ( "accounting",
        List.map accounting_case
          (List.filter (fun n -> n <> "NR") W.Matrix.scheme_names) );
      ( "seeds",
        List.concat_map
          (fun seed ->
            [
              seed_sweep_case "SkipList/HP-BRCU" Caps.SkipList "HP-BRCU" seed;
              seed_sweep_case "NMTree/HP-BRCU" Caps.NMTree "HP-BRCU" seed;
              seed_sweep_case "SkipList/HP" Caps.SkipList "HP" seed;
              seed_sweep_case "NMTree/VBR" Caps.NMTree "VBR" seed;
              seed_sweep_case "HList/HP++" Caps.HList "HP++" seed;
            ])
          [ 101; 102; 103; 104; 105; 106 ] );
    ]

