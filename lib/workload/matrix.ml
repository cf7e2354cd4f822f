(** The data-structure × scheme instantiation matrix.

    Benchmarks address cells by names ("HHSList", "HP-BRCU"); this module
    applies the right functors, honours the applicability matrix (Table 1:
    unsupported pairs return [None]), and picks the list a scheme runs
    ({!list_for}) for HashMap buckets and the whole-list workloads. *)

module Caps = Hpbrcu_core.Caps
module Schemes = Hpbrcu_schemes.Schemes
module Ds = Hpbrcu_ds
module SI = Hpbrcu_core.Smr_intf

(* Hunt entries for lib/check's schedule/fault exploration: first-class
   implementations paired with hair-trigger reclamation configs — each
   hunt case [create]s a fresh domain from its entry and [destroy]s it at
   census time, so no state bleeds between cases.  The table also carries
   the planted mutants ("<scheme>!<bug>") the hunt's mutation-testing gate
   must catch, and the "+shards" topology variant the runner drives
   through {!Hpbrcu_ds.Sharded_hashmap} (one domain per shard).  Variants
   share their base scheme's applicability — [supports] callers strip the
   suffix. *)
let hunt_impls : (string * ((module SI.SCHEME) * Hpbrcu_core.Config.t)) list =
  let impl name = fst (Schemes.find name) in
  let hunt = Schemes.hunt in
  [
    ("RCU", (impl "RCU", hunt));
    ("HP", (impl "HP", hunt));
    ("NBR", (impl "NBR", hunt));
    ("VBR", (impl "VBR", hunt));
    ("HP-RCU", (impl "HP-RCU", hunt));
    ("HP-BRCU", (impl "HP-BRCU", hunt));
    ("RCU+shards", (impl "RCU", hunt));
    ("RCU+watchdog", (impl "RCU", hunt));
    ("HP-BRCU!nomask", (impl "HP-BRCU", Schemes.hunt_nomask));
    ("HP-BRCU!nodb", (impl "HP-BRCU", Schemes.hunt_nodb));
  ]

let hunt_scheme_names =
  List.filter (fun n -> not (String.contains n '!')) (List.map fst hunt_impls)

let mutant_names =
  List.filter (fun n -> String.contains n '!') (List.map fst hunt_impls)

let find_hunt_impl name =
  match List.assoc_opt name hunt_impls with
  | Some x -> x
  | None -> invalid_arg ("unknown hunt scheme: " ^ name)

let has_suffix suffix n =
  let ls = String.length suffix and ln = String.length n in
  ln >= ls && String.sub n (ln - ls) ls = suffix

(** [is_sharded n] — the "+shards" multi-domain topology variant. *)
let is_sharded n = has_suffix "+shards" n

(** [is_watchdog n] — the "+watchdog" supervision variant: the runner arms
    an extra watchdog fiber over the case's domain, with ladder deadlines
    fuzzed from the case seed.  Real schemes must stay silent under it —
    supervision may only {e accelerate} reclamation, never break safety. *)
let is_watchdog n = has_suffix "+watchdog" n

(** [base_scheme_name n] strips a mutant's "!bug" or a topology variant's
    "+shards" suffix. *)
let base_scheme_name n =
  let strip c n =
    match String.index_opt n c with
    | Some i -> String.sub n 0 i
    | None -> n
  in
  strip '!' (strip '+' n)

(* The paper's §6 legend (figures use exactly these; HE/IBR remain
   addressable by name for custom sweeps and tests). *)
let scheme_names = List.filter (fun n -> n <> "HE" && n <> "IBR") Schemes.names

let ds_of_string = function
  | "HList" -> Caps.HList
  | "HMList" -> Caps.HMList
  | "HHSList" -> Caps.HHSList
  | "HashMap" -> Caps.HashMap
  | "SkipList" -> Caps.SkipList
  | "NMTree" -> Caps.NMTree
  | s -> invalid_arg ("unknown data structure: " ^ s)

(* NBR-Large shares NBR's applicability. *)
let supports (module S : SI.S) ds = S.caps.Caps.supports ds <> Caps.No

(** [list_for caps] — the sorted list a scheme with [caps] runs, whole or
    as HashMap buckets: HHSList where Table 1 allows it, HMList otherwise
    (HP, HE and IBR cannot traverse optimistically).  Every scheme
    supports one of the two. *)
let list_for (caps : Caps.t) : (module Ds.Hashmap.BUCKETS) =
  if caps.Caps.supports Caps.HHSList <> Caps.No then
    (module Ds.Harris_list.Make_hhs)
  else (module Ds.Hm_list.Make)

(* Hash tables sized so the expected chain length matches the paper's
   (≈1.7 nodes at 50% occupancy). *)
let bucket_hint key_range = max 16 (key_range / 4)

(** [with_cell ~ds ~scheme cell k] executes one experiment cell in a
    fresh domain of [scheme] and hands the result to [k] before the domain
    is destroyed — a traced caller dumps its log in [k], so the teardown
    drain never reaches it.  [None] when the pair is excluded by Table 1. *)
let with_cell ~(ds : Caps.ds_id) ~(scheme : string) (cell : Spec.cell) k =
  Schemes.with_domain (Schemes.find scheme) (fun (module D) ->
      let module S = D.S in
      if not (supports (module S) ds) then None
      else
        let run (type a) (module L : Ds.Ds_intf.MAP with type t = a)
            ?(create : (unit -> a) option) () =
          let module R = Cell_runner.Make (L) in
          k (R.run ?create cell ~scheme_stats:S.stats)
        in
        let buckets = bucket_hint cell.Spec.key_range in
        Some
          (match ds with
          | Caps.HList -> run (module Ds.Harris_list.Make (S)) ()
          | Caps.HMList -> run (module Ds.Hm_list.Make (S)) ()
          | Caps.HHSList -> run (module Ds.Harris_list.Make_hhs (S)) ()
          | Caps.HashMap ->
              let module B = (val list_for S.caps) in
              let module L = Ds.Hashmap.Make_gen (B) (S) in
              run (module L) ~create:(fun () -> L.create_sized buckets) ()
          | Caps.SkipList -> run (module Ds.Skiplist.Make (S)) ()
          | Caps.NMTree -> run (module Ds.Nmtree.Make (S)) ()))

(** [run_cell ~ds ~scheme cell] — {!with_cell} returning the result. *)
let run_cell ~ds ~scheme cell = with_cell ~ds ~scheme cell Fun.id
