(* Core: tagged links, retired batches, capability tables, config. *)

module Link = Hpbrcu_core.Link
module Retired = Hpbrcu_core.Retired
module Caps = Hpbrcu_core.Caps
module Config = Hpbrcu_core.Config
module Alloc = Hpbrcu_alloc.Alloc

let test_link_basics () =
  let l = Link.make ~tag:0 (Some 42) in
  Alcotest.(check (option int)) "target" (Some 42) (Link.target l);
  Alcotest.(check int) "tag" 0 (Link.tag l);
  Alcotest.(check bool) "unmarked" false (Link.is_marked l);
  let m = Link.with_tag l 1 in
  Alcotest.(check bool) "marked" true (Link.is_marked m);
  Alcotest.(check (option int)) "same target" (Some 42) (Link.target m);
  Alcotest.(check bool) "null is null" true (Link.is_null Link.null)

let test_link_cas_physical () =
  let c = Link.cell (Some 1) in
  let l = Link.get c in
  let l' = Link.make (Some 2) in
  Alcotest.(check bool) "cas with loaded expected" true
    (Link.cas c ~expected:l ~desired:l');
  (* A structurally-equal but distinct record must NOT pass as expected. *)
  let fake = Link.make (Some 2) in
  Alcotest.(check bool) "cas with equal-but-fresh expected fails" false
    (Link.cas c ~expected:fake ~desired:(Link.make (Some 3)));
  Alcotest.(check bool) "cas with the stored record" true
    (Link.cas c ~expected:l' ~desired:(Link.make (Some 3)))

let test_link_same () =
  let a = ref 1 in
  let l1 = Link.make ~tag:2 (Some a) and l2 = Link.make ~tag:2 (Some a) in
  Alcotest.(check bool) "same" true (Link.same l1 l2);
  Alcotest.(check bool) "tag differs" false (Link.same l1 (Link.with_tag l2 3));
  Alcotest.(check bool) "target differs" false
    (Link.same l1 (Link.make ~tag:2 (Some (ref 1))));
  Alcotest.(check bool) "null same" true (Link.same Link.null (Link.make None))

let test_retired_batch () =
  Alloc.reset ();
  let t = Retired.create () in
  Alcotest.(check bool) "empty" true (Retired.is_empty t);
  let bs = List.init 6 (fun _ -> Alloc.block ()) in
  List.iteri (fun i b -> Retired.push t ~stamp:i b) bs;
  List.iter Alloc.retire bs;
  Alcotest.(check int) "length" 6 (Retired.length t);
  (* Reclaim entries with even stamp. *)
  let n = Retired.reclaim_where t (fun e -> e.Retired.stamp mod 2 = 0) in
  Alcotest.(check int) "reclaimed" 3 n;
  Alcotest.(check int) "kept" 3 (Retired.length t);
  let drained = Retired.drain t in
  Alcotest.(check int) "drained" 3 (List.length drained);
  Alcotest.(check bool) "empty again" true (Retired.is_empty t)

let test_retired_free_callback () =
  Alloc.reset ();
  let t = Retired.create () in
  let hit = ref 0 in
  let b = Alloc.block () in
  Alloc.retire b;
  Retired.push t ~free:(fun () -> incr hit) b;
  ignore (Retired.reclaim_where t (fun _ -> true) : int);
  Alcotest.(check int) "finalizer ran" 1 !hit;
  Alcotest.(check bool) "block reclaimed" true Hpbrcu_alloc.Block.(is_reclaimed b)

(* Capability metadata must match the paper's applicability matrix for the
   schemes and structures we implement (Table 1's relevant rows). *)
let caps ?tuning name =
  let (module X : Hpbrcu_core.Smr_intf.SCHEME), config =
    Hpbrcu_schemes.Schemes.find ?tuning name
  in
  X.caps config

let test_caps_match_table1 () =
  let check name ds expected =
    let got = (caps name).Caps.supports ds <> Caps.No in
    Alcotest.(check bool)
      (Printf.sprintf "%s on %s" name (Caps.ds_name ds))
      expected got
  in
  (* HP: HMList and HashMap only (plus SkipList at reduced progress). *)
  check "HP" Caps.HMList true;
  check "HP" Caps.HList false;
  check "HP" Caps.HHSList false;
  check "HP" Caps.NMTree false;
  check "HP" Caps.SkipList true;
  (* NBR: no helping-during-traversal structures. *)
  check "NBR" Caps.HMList false;
  check "NBR" Caps.SkipList false;
  check "NBR" Caps.HList true;
  check "NBR" Caps.NMTree true;
  (* The optimistic family runs everything. *)
  List.iter
    (fun ds ->
      check "HP-BRCU" ds true;
      check "RCU" ds true;
      check "VBR" ds true)
    Caps.all_ds

let test_caps_match_table2 () =
  let robust name = (caps name).Caps.robust_stalled in
  let longrun name = (caps name).Caps.robust_longrun in
  Alcotest.(check bool) "RCU not robust" false (robust "RCU");
  Alcotest.(check bool) "HP-RCU not stall-robust" false (robust "HP-RCU");
  Alcotest.(check bool) "HP-RCU longrun-robust" true (longrun "HP-RCU");
  Alcotest.(check bool) "HP-BRCU stall-robust" true (robust "HP-BRCU");
  Alcotest.(check bool) "HP-BRCU longrun-robust" true (longrun "HP-BRCU");
  Alcotest.(check bool) "NBR stall-robust" true (robust "NBR");
  Alcotest.(check bool) "HP robust both" true (robust "HP" && longrun "HP")

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_tables_render () =
  (* The printed tables must include every row/column (smoke). *)
  let t1 = Fmt.str "%a" Caps.pp_table1 () in
  let t2 = Fmt.str "%a" Caps.pp_table2 () in
  Alcotest.(check int) "19 DS rows" 19 (List.length Caps.table1);
  Alcotest.(check bool) "table1 mentions skip list" true
    (contains ~needle:"skip list" t1);
  Alcotest.(check bool) "table1 mentions Natarajan" true
    (contains ~needle:"Natarajan" t1);
  Alcotest.(check bool) "table2 mentions HP-BRCU" true
    (contains ~needle:"HP-BRCU" t2);
  Alcotest.(check bool) "table2 has 4 criteria" true
    (List.length Caps.table2 = 4)

let test_config_defaults () =
  Alcotest.(check int) "batch" 128 Config.default.Config.batch;
  Alcotest.(check int) "force threshold" 2 Config.default.Config.force_threshold;
  Alcotest.(check bool) "double buffering on" true
    Config.default.Config.double_buffering;
  Alcotest.(check int) "NBR-Large batch" 8192 Config.large_batch.Config.batch;
  (* The scheme name table, pinned: every display name under each tuning
     resolves to this scheme and these batch/max_steps.  NR and NBR-Large
     ignore the tuning; HE and IBR keep the paper's config under both. *)
  let paper = (128, 64) and small = (32, 32) and large = (8192, 64) in
  let pinned =
    [
      ("NR", paper, paper);
      ("RCU", paper, small);
      ("HP", paper, small);
      ("HP++", paper, small);
      ("PEBR", paper, small);
      ("NBR", paper, small);
      ("NBR-Large", large, large);
      ("VBR", paper, small);
      ("HP-RCU", paper, small);
      ("HP-BRCU", paper, small);
      ("HE", paper, paper);
      ("IBR", paper, paper);
    ]
  in
  let check name tuning tag (batch, max_steps) =
    let label = name ^ "/" ^ tag in
    let (module X : Hpbrcu_core.Smr_intf.SCHEME), c =
      Hpbrcu_schemes.Schemes.find ~tuning name
    in
    Alcotest.(check string) (label ^ " caps.name") name (X.caps c).Caps.name;
    Alcotest.(check int) (label ^ " batch") batch c.Config.batch;
    Alcotest.(check int) (label ^ " max_steps") max_steps c.Config.max_steps
  in
  List.iter
    (fun (name, default_cfg, small_cfg) ->
      check name `Default "default" default_cfg;
      check name `Small "small" small_cfg)
    pinned;
  Alcotest.(check (list string)) "every name pinned"
    (List.map (fun (name, _, _) -> name) pinned)
    Hpbrcu_schemes.Schemes.names

let () =
  Alcotest.run "core"
    [
      ( "link",
        [
          Alcotest.test_case "basics" `Quick test_link_basics;
          Alcotest.test_case "cas-physical" `Quick test_link_cas_physical;
          Alcotest.test_case "same" `Quick test_link_same;
        ] );
      ( "retired",
        [
          Alcotest.test_case "batch" `Quick test_retired_batch;
          Alcotest.test_case "free-callback" `Quick test_retired_free_callback;
        ] );
      ( "caps",
        [
          Alcotest.test_case "table1" `Quick test_caps_match_table1;
          Alcotest.test_case "table2" `Quick test_caps_match_table2;
          Alcotest.test_case "render" `Quick test_tables_render;
          Alcotest.test_case "config" `Quick test_config_defaults;
        ] );
    ]
