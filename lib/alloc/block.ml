(** Lifecycle headers for manually-reclaimed heap blocks.

    OCaml's GC never exposes frees, so the paper's central objects —
    "retired blocks", "reclaimed blocks", "use-after-free" — are modelled
    explicitly: every node managed by a reclamation scheme is also a
    [Block.t], whose lifecycle state walks

    {v  Live --retire--> Retired --reclaim--> Reclaimed --(pool)--> Live  v}

    A scheme is correct iff no thread ever {e accesses} a [Reclaimed] block
    (checked by {!Alloc.check_access} on every mediated read) and no block
    is retired or reclaimed twice (checked by the transitions here).

    The [version]/[birth_era] fields exist for VBR, whose whole design is to
    reclaim instantly into a type-stable pool and detect stale readers by
    version arithmetic rather than by blocking reuse.

    {b Representation} (DESIGN.md §9, "the header-prefix rule").  A
    header is not an object of its own: every managed node's record
    starts with [t]'s fields, and a node's block is the node itself, seen
    through a [%identity] view ([blk : node -> Block.t]).  Field 0 is a
    placeholder here and the node's own first field there (a list node's
    [next_], which keeps its field-0 [Atomic] view); the header proper
    starts at field 1.  [word] (field 1) packs the lifecycle state into
    its low 2 bits and the version above them.  It is the only field
    written concurrently: it is CAS'd through the runtime's field CAS
    ([caml_atomic_cas_field], a full barrier) and read by a plain load
    (DESIGN.md §2.1).  The other mutable fields are plain: each is
    written before the block passes through an atomic (a [word] CAS, a
    link CAS, a pool or segment CAS) and read only after it was received
    through one, so that atomic orders them.  A standalone [t] (from
    {!make}, {!none}) is the same layout with field 0 unused. *)

type state = Live | Retired | Reclaimed

let state_to_int = function Live -> 0 | Retired -> 1 | Reclaimed -> 2
let state_of_int = function 0 -> Live | 1 -> Retired | 2 -> Reclaimed | _ -> assert false

let pp_state ppf s =
  Fmt.string ppf (match s with Live -> "Live" | Retired -> "Retired" | Reclaimed -> "Reclaimed")

type t = {
  _node : Obj.t;
      (** field 0: the node's own first field, never read through [t] *)
  mutable word : int;
      (** [version lsl 2 lor state]: read by a plain load, written only
          by {!cas_word}.  The version is bumped each time the block is
          recycled through a pool; VBR's stale-read detector *)
  id : int;  (** unique allocation id (stable across pool reuse) *)
  recyclable : bool;
      (** pool-managed blocks may legally be observed post-reclaim (VBR);
          access checks skip them *)
  mutable birth_era : int;  (** VBR: global era at (re)allocation *)
  mutable retire_era : int;
      (** the retiring scheme's stamp, -1 = live: the global era at
          retirement under IBR, HE and VBR, the epoch at defer under the
          epoch schemes (EBR, PEBR, HP-RCU's RCU half), which queue the
          block itself as its deferral *)
  mutable poison : int;
      (** poison stamp written at reclaim time when the allocator's
          poisoning mode is on: [1 + version-at-free], the simulation's
          0xdeadbeef.  0 = not poisoned.  Cleared by {!reanimate}, so a
          read of a poisoned block is provably a read of freed memory of a
          specific incarnation, not of a recycled successor. *)
  mutable owner : int;
      (** reclamation-domain owner slot ({!Alloc.Owner}), stamped at retire
          time by the retiring domain; 0 = untagged.  This is the P0484
          [rcu_obj_base] idea flipped inside out: instead of embedding a
          deleter closure in the object header, the header carries the
          domain id and the allocator debits that domain's unreclaimed
          watermark at reclaim time — intrusive accounting with no
          per-retire closure. *)
}

(* The OCaml 5.1.1 runtime's CAS of field [i] of a block (sequentially
   consistent, plus the write barrier, a no-op for ints), used at
   [word]'s index only.  Native code calls [caml_atomic_cas_field]
   directly, as [Atomic.compare_and_set] calls [caml_atomic_cas]: it
   neither allocates, raises nor polls, so [noalloc] holds and the call
   skips [caml_obj_compare_and_swap]'s OCaml-call frame and GC poll
   (4-5 ns per CAS).  Its C [int] result is read by its low bit only: the
   upper half of the return register is unspecified.  Bytecode calls
   [caml_obj_compare_and_swap], which takes and returns tagged ints. *)
external cas_field :
  'a -> (int[@untagged]) -> int -> int -> (int[@untagged])
  = "caml_obj_compare_and_swap" "caml_atomic_cas_field"
  [@@noalloc]

let word_field = 1

let[@inline] cas_word t ~expected ~desired =
  cas_field (t : t) word_field expected desired land 1 = 1

(** [cas_int r i ~expected ~desired] — the same CAS on field [i] of the
    record [r], which must be an int field: a node's own concurrently
    written int fields (the lazy list's [lock] and [marked]) take it as
    [word] does, and are read by plain loads. *)
let[@inline] cas_int r i ~expected ~desired =
  cas_field r i expected desired land 1 = 1

let state_mask = 3

let next_id = Atomic.make 0

(** Restart the id sequence (between experiment cells, when no blocks from
    the previous cell are reachable).  With ids restarting at 0, a fiber
    run's block ids — and therefore the [Retire]/[Reclaim] correlation
    arguments in traces — are a pure function of the seed.  Stale blocks
    sharing an id with a new one can only make a hazard scan {e withhold}
    a reclaim, never permit one, so a missed reset degrades nothing. *)
let reset_ids () = Atomic.set next_id 0

(** The [word] of a block born [Live] at version 0. *)
let live = state_to_int Live

(** The next allocation id.  A node draws it where it is built, so ids
    follow allocation order. *)
let fresh_id () = Atomic.fetch_and_add next_id 1

let build id recyclable =
  {
    _node = Obj.repr 0;
    word = live;
    id;
    recyclable;
    birth_era = 0;
    retire_era = -1;
    poison = 0;
    owner = 0;
  }

(** A standalone header (field 0 unused): the allocator's test blocks and
    the retired-batch placeholder. *)
let make ?(recyclable = false) () = build (fresh_id ()) recyclable

(** The block of no node: the [src] of a read from a cell that no managed
    node owns (an entry point), and the value that empties a hazard slot.
    It is never retired, so an access check on it passes, and it takes no
    id from the sequence, so making it leaves every fiber run's block ids
    unchanged. *)
let none = build (-1) false

let id t = t.id
let owner t = t.owner
let set_owner t o = t.owner <- o
let state t = state_of_int (t.word land state_mask)
let version t = t.word lsr 2
let birth_era t = t.birth_era
let retire_era t = t.retire_era
let recyclable t = t.recyclable

let is_live t = state t = Live
let is_retired t = state t = Retired

(* The fast path of every mediated read's access check, so one load and
   an int compare: 2 is [state_to_int Reclaimed]. *)
let[@inline] is_reclaimed t = t.word land state_mask = 2

(* Toplevel, so that the retry loop closes over nothing. *)
let rec cas_state t from to_ =
  let w = t.word in
  if w land state_mask <> from then false
  else cas_word t ~expected:w ~desired:(w - from + to_) || cas_state t from to_

(** Atomically transition [from -> to_], keeping the version; returns
    [false] if the block was not in [from] (e.g. a double retire). *)
let transition t ~from ~to_ = cas_state t (state_to_int from) (state_to_int to_)

(** [poison t] — stamp the block as freed (the stamp encodes the dying
    incarnation's version); {!is_poisoned} then identifies any later read
    as a use-after-free of that incarnation.  Idempotent. *)
let poison t = t.poison <- 1 + version t

let is_poisoned t = t.poison <> 0

(** Reset a recycled block to [Live], bumping its version.  Only the pool
    calls this, on a block it popped, so no other thread writes [word]
    meanwhile.  The plain fields are written first; one CAS then
    publishes the new version and [Live] together. *)
let reanimate t ~era =
  assert t.recyclable;
  t.birth_era <- era;
  t.retire_era <- -1;
  t.poison <- 0;
  t.owner <- 0;
  let w = t.word in
  let ok = cas_word t ~expected:w ~desired:(((w lsr 2) + 1) lsl 2 lor live) in
  assert ok

let mark_retire_era t ~era = t.retire_era <- era
let set_birth_era t ~era = t.birth_era <- era

let pp ppf t =
  Fmt.pf ppf "block#%d[%a v%d]" t.id pp_state (state t) (version t)
