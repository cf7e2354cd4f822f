(* The long-running-read workload and the harnesses built on it: the list
   each scheme runs, a Longrun cell under fibers, a short Sampler run on
   domains, and the shards experiment's fault-plan crash on domains. *)

module W = Hpbrcu_workload
module Trace = Hpbrcu_runtime.Trace
module Schemes = Hpbrcu_schemes.Schemes

(* ------------------------------------------------------------------ *)
(* The list pick                                                       *)
(* ------------------------------------------------------------------ *)

let picked_list scheme =
  Schemes.with_domain (Schemes.find scheme) (fun (module D) ->
      let module B = (val W.Matrix.list_for D.S.caps) in
      let module L = B (D.S) in
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
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let test_sampler () =
  let o =
    W.Sampler.run
      {
        W.Sampler.default_params with
        duration = 0.1;
        stall_after = 0.03;
        heal_after = 0.06;
        key_range = 256;
      }
  in
  Alcotest.(check int) "uaf" 0 o.W.Sampler.uaf;
  Alcotest.(check bool) "samples present" true (o.W.Sampler.samples <> []);
  ignore
    (List.fold_left
       (fun prev s ->
         if s.W.Sampler.t_ms < prev then
           Alcotest.failf "t_ms went backwards: %.2f after %.2f" s.W.Sampler.t_ms
             prev;
         s.W.Sampler.t_ms)
       neg_infinity o.W.Sampler.samples
      : float)

(* ------------------------------------------------------------------ *)
(* Shards on domains                                                   *)
(* ------------------------------------------------------------------ *)

(* The fault plan's crash, not an emulation: each build sees exactly one
   crashed reader and no use-after-free.  The isolation ratio is the
   check.sh gate's to judge. *)
let test_shards_domains () =
  let p = W.Shards.quick { W.Shards.default_params with substrate = `Domains } in
  let r = W.Shards.run_one p in
  Alcotest.(check int) "isolated build: one crash" 1 r.W.Shards.isolated.crashes;
  Alcotest.(check int) "shared build: one crash" 1 r.W.Shards.shared.crashes;
  Alcotest.(check int) "isolated build: uaf" 0 r.W.Shards.isolated.uaf;
  Alcotest.(check int) "shared build: uaf" 0 r.W.Shards.shared.uaf

let () =
  Alcotest.run "workload"
    [
      ( "list pick",
        [
          Alcotest.test_case "HMList for HP/HE/IBR only" `Quick test_list_pick;
          Alcotest.test_case "HashMap buckets" `Quick test_hashmap_buckets;
        ] );
      ( "longrun",
        List.map
          (fun s -> Alcotest.test_case s `Quick (test_longrun_fibers s))
          [ "HP"; "HP-BRCU" ] );
      ("sampler", [ Alcotest.test_case "short run" `Quick test_sampler ]);
      ( "shards",
        [ Alcotest.test_case "domains fault-plan crash" `Quick test_shards_domains ]
      );
    ]
