(* Core: tagged links, retired batches, capability tables, config. *)

module Link = Hpbrcu_core.Link
module Retired = Hpbrcu_core.Retired
module Caps = Hpbrcu_core.Caps
module Config = Hpbrcu_core.Config
module Alloc = Hpbrcu_alloc.Alloc

(* A link's target as an option, for assertions. *)
let target = function Link.Null _ -> None | Link.Ptr { target; _ } -> Some target

let test_link_basics () =
  let l = Link.ptr 42 in
  Alcotest.(check (option int)) "target" (Some 42) (target l);
  Alcotest.(check int) "tag" 0 (Link.tag l);
  Alcotest.(check bool) "unmarked" false (Link.is_marked l);
  Alcotest.(check bool) "points to" true (Link.points_to l 42);
  let m = Link.with_tag l 1 in
  Alcotest.(check bool) "marked" true (Link.is_marked m);
  Alcotest.(check (option int)) "same target" (Some 42) (target m);
  Alcotest.(check int) "target_exn" 42 (Link.target_exn m);
  (* Null against marked-null: both null, only one marked, and not the
     same tagged pointer. *)
  let mn = Link.with_tag Link.null 1 in
  Alcotest.(check bool) "null is null" true (Link.is_null Link.null);
  Alcotest.(check bool) "marked null is null" true (Link.is_null mn);
  Alcotest.(check bool) "null unmarked" false (Link.is_marked Link.null);
  Alcotest.(check bool) "marked null marked" true (Link.is_marked mn);
  Alcotest.(check bool) "null vs marked null: same target" true
    (Link.same_target Link.null mn);
  Alcotest.(check bool) "null vs marked null: not same" false
    (Link.same Link.null mn);
  Alcotest.(check bool) "fresh null is same" true
    (Link.same Link.null (Link.null_tagged 0));
  Alcotest.(check bool) "fresh null is a fresh block" false
    (Link.null_tagged 0 == Link.null_tagged 0);
  Alcotest.(check bool) "null vs ptr" false (Link.same Link.null l);
  Alcotest.(check bool) "null points nowhere" false (Link.points_to Link.null 42);
  (* A store of [with_tag] replaces the block, so a CAS that still expects
     the block loaded before the store fails, although the two denote the
     same target. *)
  let c = Link.cell (Link.null_tagged 0) in
  let stale = Link.get c in
  Link.set c (Link.with_tag stale 0);
  Alcotest.(check bool) "re-tagged store is same" true (Link.same stale (Link.get c));
  Alcotest.(check bool) "cas with stale expected fails" false
    (Link.cas c ~expected:stale ~desired:(Link.ptr 1));
  Alcotest.(check bool) "cas with current expected succeeds" true
    (Link.cas c ~expected:(Link.get c) ~desired:(Link.ptr 1))

let test_link_cas_physical () =
  let c = Link.cell (Link.ptr 1) in
  let l = Link.get c in
  let l' = Link.ptr 2 in
  Alcotest.(check bool) "cas with loaded expected" true
    (Link.cas c ~expected:l ~desired:l');
  (* A structurally-equal but distinct record must NOT pass as expected. *)
  let fake = Link.ptr 2 in
  Alcotest.(check bool) "cas with equal-but-fresh expected fails" false
    (Link.cas c ~expected:fake ~desired:(Link.ptr 3));
  Alcotest.(check bool) "cas with the stored record" true
    (Link.cas c ~expected:l' ~desired:(Link.ptr 3))

let test_link_same () =
  let a = ref 1 in
  let l1 = Link.with_tag (Link.ptr a) 2 and l2 = Link.with_tag (Link.ptr a) 2 in
  Alcotest.(check bool) "same" true (Link.same l1 l2);
  Alcotest.(check bool) "tag differs" false (Link.same l1 (Link.with_tag l2 3));
  Alcotest.(check bool) "target differs" false
    (Link.same l1 (Link.with_tag (Link.ptr (ref 1)) 2));
  Alcotest.(check bool) "null same" true (Link.same Link.null (Link.null_tagged 0))

(* A record that is its own link cell, as a list node is: field 0 is the
   link, read, set and CAS'd through an [Atomic.t] view of the record. *)
type vnode = { mutable next_ : vnode Link.t; id : int }

external vcell : vnode -> vnode Link.cell = "%identity"

let vnode id = { next_ = Link.null_tagged 0; id }

(* The target id (-1 for null) and the tag of [v]'s link. *)
let loaded v =
  match Link.get (vcell v) with
  | Link.Ptr { target; tag } -> (target.id, tag)
  | Link.Null { tag } -> (-1, tag)

(* Young links to young targets, stored into a promoted record through the
   view: only the view's write barrier keeps them reachable, and every
   collection (a minor one moves them, a compaction moves the record too)
   must leave the loads returning what was stored. *)
let test_link_field0_gc () =
  let holder = Sys.opaque_identity (vnode 0) in
  Gc.full_major ();
  let survives what want =
    List.iter
      (fun (name, collect) ->
        collect ();
        Alcotest.(check (pair int int)) (what ^ " after " ^ name) want (loaded holder))
      [ ("minor", Gc.minor); ("full_major", Gc.full_major); ("compact", Gc.compact) ]
  in
  Link.set (vcell holder) (Link.with_tag (Link.ptr (vnode 1)) 1);
  survives "set" (1, 1);
  let expected = Link.get (vcell holder) in
  Alcotest.(check bool) "cas succeeds" true
    (Link.cas (vcell holder) ~expected ~desired:(Link.with_tag (Link.ptr (vnode 2)) 0));
  survives "cas" (2, 0);
  (* A young chain hung off the old record, linked through the view. *)
  for id = 3 to 202 do
    let n = vnode id in
    Link.set (vcell n) (Link.get (vcell holder));
    Link.set (vcell holder) (Link.ptr n)
  done;
  survives "chain head" (202, 0);
  let rec ids acc v =
    match Link.get (vcell v) with
    | Link.Ptr { target; _ } -> ids (target.id :: acc) target
    | Link.Null _ -> acc
  in
  Alcotest.(check (list int)) "chain" (List.init 201 (fun i -> i + 2)) (ids [] holder)

(* Two domains CAS-prepend to one promoted chain through the view, with a
   minor collection every few hundred CASes: no prepend is lost or
   duplicated, so the chain is exactly as long as the successful CASes. *)
let test_link_field0_domains () =
  let head = Sys.opaque_identity (vnode 0) in
  Gc.full_major ();
  let attempts = 20_000 in
  let prepend d () =
    let wins = ref 0 in
    for i = 1 to attempts do
      let cur = Link.get (vcell head) in
      let n = vnode ((d * attempts) + i) in
      Link.set (vcell n) (Link.with_tag cur 0);
      if Link.cas (vcell head) ~expected:cur ~desired:(Link.ptr n) then incr wins;
      if i mod 300 = 0 then Gc.minor ()
    done;
    !wins
  in
  let other = Domain.spawn (prepend 1) in
  let mine = prepend 0 () in
  let wins = mine + Domain.join other in
  Gc.compact ();
  let rec length acc v =
    match Link.get (vcell v) with
    | Link.Ptr { target; tag } ->
        Alcotest.(check int) "untagged" 0 tag;
        length (acc + 1) target
    | Link.Null _ -> acc
  in
  Alcotest.(check bool) "some CASes won" true (wins > 0);
  Alcotest.(check int) "chain length = successful CASes" wins (length 0 head)

let test_retired_batch () =
  Alloc.reset ();
  let t = Retired.create () in
  Alcotest.(check bool) "empty" true (Retired.is_empty t);
  let bs = List.init 6 (fun _ -> Alloc.block ()) in
  List.iteri
    (fun i b ->
      Hpbrcu_alloc.Block.mark_retire_era b ~era:i;
      Retired.push t b)
    bs;
  List.iter Alloc.retire bs;
  Alcotest.(check int) "length" 6 (Retired.length t);
  (* Reclaim blocks with an even stamp. *)
  let n =
    Retired.reclaim_where t (fun b -> Hpbrcu_alloc.Block.retire_era b mod 2 = 0)
  in
  Alcotest.(check int) "reclaimed" 3 n;
  Alcotest.(check int) "kept" 3 (Retired.length t);
  let drained = Retired.drain_array t in
  Alcotest.(check int) "drained" 3 (Array.length drained);
  Alcotest.(check bool) "empty again" true (Retired.is_empty t)

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

(* Every implemented scheme's caps against every mark of the paper's
   Table 2: the two robustness rows read Y or -, per-node overhead
   Y/^/- as NoOverhead/ValidationOnly/ProtectAndValidate, starvation
   Y/^/- as Free/Fine/Coarse.  DEBRA+ is not implemented. *)
let test_caps_match_table2 () =
  let yes_no b = if b then Caps.T_good else Caps.T_bad in
  let rows (c : Caps.t) =
    [|
      yes_no c.robust_stalled;
      yes_no c.robust_longrun;
      (match c.per_node with
      | Caps.NoOverhead -> Caps.T_good
      | ValidationOnly -> T_mid
      | ProtectAndValidate -> T_bad);
      (match c.starvation with
      | Caps.Free -> Caps.T_good
      | Fine -> T_mid
      | Coarse -> T_bad);
    |]
  in
  let checked = ref 0 in
  List.iteri
    (fun row (criterion, marks) ->
      List.iteri
        (fun col column ->
          List.iter
            (fun name ->
              if name <> "DEBRA+" then begin
                incr checked;
                Alcotest.(check string)
                  (Printf.sprintf "%s: %s" name criterion)
                  (Caps.t2_str marks.(col))
                  (Caps.t2_str (rows (caps name)).(row))
              end)
            (String.split_on_char ',' column))
        Caps.table2_schemes)
    Caps.table2;
  Alcotest.(check int) "10 schemes x 4 criteria" 40 !checked

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
  Alcotest.(check int) "NBR-Large batch" 8192 Config.large_batch.Config.batch;
  (* The scheme name table, pinned: every display name under each tuning
     resolves to this scheme and these batch/checkpoint_steps.  NR and NBR-Large
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
  let check name tuning tag (batch, checkpoint_steps) =
    let label = name ^ "/" ^ tag in
    let (module X : Hpbrcu_core.Smr_intf.SCHEME), c =
      Hpbrcu_schemes.Schemes.find ~tuning name
    in
    Alcotest.(check string) (label ^ " caps.name") name (X.caps c).Caps.name;
    Alcotest.(check int) (label ^ " batch") batch c.Config.batch;
    Alcotest.(check int) (label ^ " checkpoint_steps") checkpoint_steps
      c.Config.checkpoint_steps
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
          Alcotest.test_case "field0-view-gc" `Quick test_link_field0_gc;
          Alcotest.test_case "field0-view-domains" `Quick test_link_field0_domains;
        ] );
      ( "retired",
        [
          Alcotest.test_case "batch" `Quick test_retired_batch;
        ] );
      ( "caps",
        [
          Alcotest.test_case "table1" `Quick test_caps_match_table1;
          Alcotest.test_case "table2" `Quick test_caps_match_table2;
          Alcotest.test_case "render" `Quick test_tables_render;
          Alcotest.test_case "config" `Quick test_config_defaults;
        ] );
    ]
