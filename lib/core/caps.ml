(** Capability metadata: the machine-readable form of the paper's Table 1
    (applicability of reclamation schemes to data structures) and Table 2
    (robustness / efficiency criteria).

    Two uses:
    - the [tables] binary prints both tables, reproducing them;
    - the data-structure instantiation matrix (workload harness, tests)
      consults {!t.supports} so that unsupported pairs — e.g. NBR with the
      Harris-Michael list, whose traversal performs helping writes inside
      the read phase — are excluded exactly as the paper excludes them. *)

(** The six data structures of the paper's benchmark suite. *)
type ds_id = HList | HMList | HHSList | HashMap | SkipList | NMTree

let all_ds = [ HList; HMList; HHSList; HashMap; SkipList; NMTree ]

let ds_name = function
  | HList -> "HList"
  | HMList -> "HMList"
  | HHSList -> "HHSList"
  | HashMap -> "HashMap"
  | SkipList -> "SkipList"
  | NMTree -> "NMTree"

(** Applicability verdicts, following Table 1's legend. *)
type support =
  | Yes  (** ✓ supported *)
  | No  (** ✗ not supported *)
  | NoWaitFree  (** ▲ supported but wait-freedom degraded to lock-freedom *)

type per_node = NoOverhead | ValidationOnly | ProtectAndValidate
type starvation = Free | Fine | Coarse

type t = {
  name : string;
  robust_stalled : bool;  (** bounds garbage under preempted readers *)
  robust_longrun : bool;  (** bounds garbage under long-running operations *)
  per_node : per_node;
      (** Table 2: per-node traversal overhead.  The HP-family [read]s
          pay it in their own hop ring; data structures read it once per
          functor application: see {!hop_shields}; under
          [ProtectAndValidate] the skip list's [get] helps. *)
  starvation : starvation;
      (** Table 2: starvation-freedom in long-running operations *)
  supports : ds_id -> support;
  bound : nthreads:int -> int option;
      (** Declared worst-case unreclaimed-block high-water for [nthreads]
          workers under adversarial stalls and crashes — the quantitative
          form of [robust_stalled], checked per cell by the chaos harness
          ([smrbench chaos]).  Each scheme derives it from its own config
          (e.g. HP-BRCU's [2GN + GN² + H] with
          [G = max_local_tasks × force_threshold], paper §5); [None] means
          unbounded: one stalled or crashed reader can pin arbitrarily
          much garbage (EBR-family, Figure 1). *)
}

let yes_all _ = Yes

(** [hop_shields c] — whether a traversal under [c] keeps nodes
    protected across hops in lasting shields of the structure's own
    (NMTree's ancestor and parent, SkipList's pred and completed levels),
    so a session registers them.  Not under [NoOverhead]: such a scheme
    walks inside a section whose [traverse] publishes the whole cursor
    (DESIGN.md §9). *)
let hop_shields c = c.per_node <> NoOverhead

(** The [bound] of the non-robust schemes (NR, RCU, HP-RCU). *)
let unbounded ~nthreads:_ = None

(* --------------------------------------------------------------- *)
(* Paper Table 1 (full 19-row version), as static data.             *)
(* --------------------------------------------------------------- *)

type table1_mark = M_yes | M_no | M_tri | M_star | M_star2

let mark_str = function
  | M_yes -> "Y"
  | M_no -> "-"
  | M_tri -> "^"
  | M_star -> "*"
  | M_star2 -> "**"

(** Rows of the paper's Table 1: data structure, then marks for the five
    scheme columns (HP/HE/IBR; DEBRA+; NBR; RCU; HP-RCU/HP-BRCU/VBR/HP++/
    PEBR). *)
let table1 : (string * table1_mark array) list =
  [
    ("linked list (Heller+)",        [| M_no; M_no; M_tri; M_yes; M_tri |]);
    ("linked list (Harris)",         [| M_no; M_star; M_yes; M_yes; M_yes |]);
    ("linked list (Michael)",        [| M_yes; M_star; M_no; M_yes; M_yes |]);
    ("partially ext. BST (DVY)",     [| M_no; M_no; M_star2; M_yes; M_yes |]);
    ("ext. BST (EFRB)",              [| M_yes; M_star; M_yes; M_yes; M_yes |]);
    ("ext. BST (Natarajan-Mittal)",  [| M_no; M_star; M_yes; M_yes; M_yes |]);
    ("ext. BST (EFHR)",              [| M_yes; M_star; M_no; M_yes; M_yes |]);
    ("ext. BST (David+)",            [| M_no; M_no; M_tri; M_yes; M_tri |]);
    ("int. BST (Howley-Jones)",      [| M_no; M_star; M_yes; M_yes; M_yes |]);
    ("int. BST (Ramachandran-M.)",   [| M_no; M_no; M_no; M_yes; M_yes |]);
    ("partially ext. AVL (BCCO)",    [| M_yes; M_no; M_no; M_yes; M_yes |]);
    ("partially ext. AVL (DVY)",     [| M_no; M_no; M_no; M_yes; M_yes |]);
    ("ext. relaxed AVL (He-Li)",     [| M_no; M_yes; M_yes; M_yes; M_yes |]);
    ("ext. AVL (Brown)",             [| M_no; M_yes; M_yes; M_yes; M_yes |]);
    ("patricia trie (Shafiei)",      [| M_no; M_star; M_tri; M_yes; M_tri |]);
    ("ext. chromatic tree (BER)",    [| M_no; M_yes; M_yes; M_yes; M_yes |]);
    ("ext. (a,b)-tree (Brown)",      [| M_no; M_yes; M_yes; M_yes; M_yes |]);
    ("ext. interpolation tree (BPA)",[| M_no; M_no; M_no; M_yes; M_tri |]);
    ("skip list (Herlihy-Shavit)",   [| M_tri; M_no; M_no; M_yes; M_tri |]);
  ]

let table1_columns = [ "HP/HE/IBR"; "DEBRA+"; "NBR"; "RCU"; "HP-(B)RCU+" ]

let pp_table1 ppf () =
  Fmt.pf ppf "Table 1: applicability of reclamation schemes@.";
  Fmt.pf ppf "  legend: Y supported | - not supported | ^ supported, wait-freedom lost@.";
  Fmt.pf ppf "          * needs significant recovery-design effort | ** needs restructuring@.@.";
  Fmt.pf ppf "  %-32s" "data structure";
  List.iter (Fmt.pf ppf " %12s") table1_columns;
  Fmt.pf ppf "@.";
  List.iter
    (fun (ds, marks) ->
      Fmt.pf ppf "  %-32s" ds;
      Array.iter (fun m -> Fmt.pf ppf " %12s" (mark_str m)) marks;
      Fmt.pf ppf "@.")
    table1

(* --------------------------------------------------------------- *)
(* Paper Table 2, as static data.                                   *)
(* --------------------------------------------------------------- *)

type t2_mark = T_good | T_mid | T_bad

let t2_str = function T_good -> "Y" | T_mid -> "^" | T_bad -> "-"

let table2_schemes =
  [ "RCU"; "HP,HP++"; "HE"; "PEBR"; "VBR"; "IBR"; "DEBRA+,NBR"; "HP-RCU"; "HP-BRCU" ]

(** criterion name, marks in {!table2_schemes} order *)
let table2 : (string * t2_mark array) list =
  [
    ( "robust: stalled threads",
      [| T_bad; T_good; T_good; T_good; T_good; T_good; T_good; T_bad; T_good |] );
    ( "robust: long-running ops",
      [| T_bad; T_good; T_good; T_good; T_good; T_bad; T_good; T_good; T_good |] );
    ( "low per-node overhead",
      [| T_good; T_bad; T_mid; T_bad; T_mid; T_mid; T_good; T_good; T_good |] );
    ( "starvation-free long ops",
      [| T_good; T_mid; T_mid; T_bad; T_bad; T_mid; T_bad; T_mid; T_mid |] );
  ]

let pp_table2 ppf () =
  Fmt.pf ppf "Table 2: robustness and efficiency of reclamation schemes@.";
  Fmt.pf ppf "  legend: Y yes | ^ partial | - no@.@.";
  Fmt.pf ppf "  %-28s" "criterion";
  List.iter (Fmt.pf ppf " %11s") table2_schemes;
  Fmt.pf ppf "@.";
  List.iter
    (fun (c, marks) ->
      Fmt.pf ppf "  %-28s" c;
      Array.iter (fun m -> Fmt.pf ppf " %11s" (t2_str m)) marks;
      Fmt.pf ppf "@.")
    table2

(* --------------------------------------------------------------- *)
(* Per-scheme runtime capabilities (consulted by the harness).      *)
(* --------------------------------------------------------------- *)

(* Applicability of the implemented schemes to the six implemented data
   structures, mirroring the relevant rows of Table 1. *)

let supports_hp = function
  | HMList | HashMap -> Yes
  | HList | HHSList | NMTree -> No
  | SkipList -> NoWaitFree

let supports_nbr = function
  | HList | HHSList | NMTree -> Yes
  | HashMap -> Yes (* buckets are Harris lists under NBR, as in the paper *)
  | HMList | SkipList -> No

let supports_optimistic = function
  | HList | HHSList | SkipList -> NoWaitFree
  | HMList | HashMap | NMTree -> Yes
