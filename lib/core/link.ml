(** Tagged atomic links between nodes.

    Lock-free lists and trees mark nodes for logical deletion by setting tag
    bits inside the {e successor pointer} ("pointer tagging").  C/Rust steal
    low pointer bits; in OCaml a link is an immutable block holding the
    target and the tag, stored in a {!cell}: an [Atomic.t] of its own, or
    field 0 of a list node viewed as one (DESIGN.md §9, "the field-0
    rule"):

    - a link {e load} returns the block;
    - a link {e CAS} compares the block by {b physical equality}, so the
      expected value must be a block previously loaded from the same cell —
      exactly the discipline tagged-pointer CAS imposes in C.

    Because a fresh block is allocated on every store, physical equality
    also rules out ABA at the link level "for free" (the GC cannot reuse a
    reachable block).  This is {e more} forgiving than real memory — which
    is why VBR, the scheme whose purpose is surviving ABA under immediate
    reuse, carries explicit version numbers in {!Hpbrcu_alloc.Block}: the
    hazard it defends against is reintroduced deliberately by the allocator
    pool, not by link cells.

    {b Representation} (DESIGN.md §9, "objects per hop").  A link is
    [Null {tag}] or [Ptr {target; tag}], each constructor a single block,
    so matching a loaded [Ptr] yields its target with no option box in
    between: a hop from node to node touches the link and the target, not
    a [Some] as well.  Hot paths match the constructor directly.  The
    builders below allocate afresh on every call, with the single
    exception of {!null}, the shared tag-0 null: their tag goes through
    [Sys.opaque_identity], so that the compiler cannot fold a builder
    applied to constants into one shared static block. *)

type 'a t = Null of { tag : int } | Ptr of { target : 'a; tag : int }

type 'a cell = 'a t Atomic.t

(** The shared tag-0 null link (one static block). *)
let null = Null { tag = 0 }

(** A fresh null link with tag [tag]. *)
let[@inline] null_tagged tag = Null { tag = Sys.opaque_identity tag }

(** A fresh tag-0 link to [x]. *)
let[@inline] ptr x = Ptr { target = x; tag = Sys.opaque_identity 0 }

let[@inline] tag = function Null { tag } | Ptr { tag; _ } -> tag
let[@inline] is_null = function Null _ -> true | Ptr _ -> false
let[@inline] is_marked l = tag l land 1 <> 0

(** [points_to l x] — is [x] (physically) the target of [l]? *)
let[@inline] points_to l x =
  match l with Ptr { target; _ } -> target == x | Null _ -> false

(** The target of a link known to be non-null. *)
let target_exn = function
  | Ptr { target; _ } -> target
  | Null _ -> invalid_arg "Link.target_exn: null link"

(** Same target, tag [tag]: a fresh block, safe to use as a CAS
    desired-value.  [with_tag l 0] is the untagged copy of [l]. *)
let with_tag l tag =
  match l with
  | Null _ -> null_tagged tag
  | Ptr { target; _ } -> Ptr { target; tag = Sys.opaque_identity tag }

let cell (l : 'a t) : 'a cell = Atomic.make l

(** [get c] — an unmediated load.  Scheme code only; data structures must go
    through their scheme's [read]. *)
let get (c : 'a cell) = Atomic.get c

let set (c : 'a cell) l = Atomic.set c l

(** [cas c ~expected ~desired] — single-word CAS on the tagged link.
    [expected] must be a block read from [c] (physical equality). *)
let cas (c : 'a cell) ~expected ~desired =
  Atomic.compare_and_set c expected desired

(** [same_target a b] — do two links point to the same node (or are both
    null)?  Tags are not compared. *)
let same_target a b =
  match (a, b) with
  | Null _, Null _ -> true
  | Ptr p, Ptr q -> p.target == q.target
  | _ -> false

(** [same a b] — do two loaded links denote the same tagged pointer?  Used
    by validation: compares target identity and tag, not block identity,
    because two loads of an unchanged cell do return the same block but a
    re-written equal link must also validate (helping can rewrite). *)
let same a b = tag a = tag b && same_target a b
