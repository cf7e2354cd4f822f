(** Lifecycle headers for manually-reclaimed heap blocks.

    OCaml's GC never exposes frees, so the paper's central objects —
    "retired blocks", "reclaimed blocks", "use-after-free" — are modelled
    explicitly: every node managed by a reclamation scheme embeds a
    [Block.t] whose atomic lifecycle state walks

    {v  Live --retire--> Retired --reclaim--> Reclaimed --(pool)--> Live  v}

    A scheme is correct iff no thread ever {e accesses} a [Reclaimed] block
    (checked by {!Alloc.check_access} on every mediated read) and no block
    is retired or reclaimed twice (checked by the transitions here).

    The [version]/[birth_era] fields exist for VBR, whose whole design is to
    reclaim instantly into a type-stable pool and detect stale readers by
    version arithmetic rather than by blocking reuse.

    {b Representation} (DESIGN.md §9, "objects per hop").  A header is one
    7-field record — 8 words, one object — so a reader that reaches a node
    touches one more object for its header, not eight.  Field 0, [word],
    packs the lifecycle state into its low 2 bits and the version above
    them; it is the only field written concurrently, and it is read and
    CAS'd only through {!cell}, an [int Atomic.t] view of the record.
    OCaml 5.1 has no atomic record fields, but an [Atomic.t] is a one-field
    block whose primitives act on field 0, so the view is exact.  The other
    mutable fields are plain: each is written before the block passes
    through an atomic (the [word] itself, a link CAS, a pool or segment
    CAS) and read only after it was received through one, so the atomic's
    release/acquire orders them. *)

type state = Live | Retired | Reclaimed

let state_to_int = function Live -> 0 | Retired -> 1 | Reclaimed -> 2
let state_of_int = function 0 -> Live | 1 -> Retired | 2 -> Reclaimed | _ -> assert false

let pp_state ppf s =
  Fmt.string ppf (match s with Live -> "Live" | Retired -> "Retired" | Reclaimed -> "Reclaimed")

type t = {
  mutable word : int;
      (** [version lsl 2 lor state]: access only through {!cell}.  The
          version is bumped each time the block is recycled through a
          pool; VBR's stale-read detector *)
  id : int;  (** unique allocation id (stable across pool reuse) *)
  recyclable : bool;
      (** pool-managed blocks may legally be observed post-reclaim (VBR);
          access checks skip them *)
  mutable birth_era : int;  (** VBR: global era at (re)allocation *)
  mutable retire_era : int;  (** VBR: global era at retirement; -1 = live *)
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

(** The atomic view of [word] (field 0).  The only representation cast in
    the library; every field of [t] is an immediate, so no write through
    the view can bypass the GC's write barrier. *)
external cell : t -> int Atomic.t = "%identity"

let state_mask = 3

let next_id = Atomic.make 0

(** Restart the id sequence (between experiment cells, when no blocks from
    the previous cell are reachable).  With ids restarting at 0, a fiber
    run's block ids — and therefore the [Retire]/[Reclaim] correlation
    arguments in traces — are a pure function of the seed.  Stale blocks
    sharing an id with a new one can only make a hazard scan {e withhold}
    a reclaim, never permit one, so a missed reset degrades nothing. *)
let reset_ids () = Atomic.set next_id 0

let build id recyclable =
  {
    word = state_to_int Live;
    id;
    recyclable;
    birth_era = 0;
    retire_era = -1;
    poison = 0;
    owner = 0;
  }

let make ?(recyclable = false) () =
  build (Atomic.fetch_and_add next_id 1) recyclable

(** The block of no node: the [src] of a read from a cell that no managed
    node owns (an entry point), and the value that empties a hazard slot.
    It is never retired, so an access check on it passes, and it takes no
    id from the sequence, so making it leaves every fiber run's block ids
    unchanged. *)
let none = build (-1) false

let id t = t.id
let owner t = t.owner
let set_owner t o = t.owner <- o
let state t = state_of_int (Atomic.get (cell t) land state_mask)
let version t = Atomic.get (cell t) lsr 2
let birth_era t = t.birth_era
let retire_era t = t.retire_era
let recyclable t = t.recyclable

let is_live t = state t = Live
let is_retired t = state t = Retired

(* The fast path of every mediated read's access check, so one load and
   an int compare: 2 is [state_to_int Reclaimed]. *)
let[@inline] is_reclaimed t = Atomic.get (cell t) land state_mask = 2

(* Toplevel, so that the retry loop closes over nothing. *)
let rec cas_state t from to_ =
  let w = Atomic.get (cell t) in
  if w land state_mask <> from then false
  else
    Atomic.compare_and_set (cell t) w (w - from + to_) || cas_state t from to_

(** Atomically transition [from -> to_], keeping the version; returns
    [false] if the block was not in [from] (e.g. a double retire). *)
let transition t ~from ~to_ = cas_state t (state_to_int from) (state_to_int to_)

(** [poison t] — stamp the block as freed (the stamp encodes the dying
    incarnation's version); {!is_poisoned} then identifies any later read
    as a use-after-free of that incarnation.  Idempotent. *)
let poison t = t.poison <- 1 + version t

let unpoison t = t.poison <- 0
let is_poisoned t = t.poison <> 0

(** Reset a recycled block to [Live], bumping its version.  Only the pool
    calls this.  The plain fields are written first; one atomic store then
    publishes the new version and [Live] together. *)
let reanimate t ~era =
  assert t.recyclable;
  t.birth_era <- era;
  t.retire_era <- -1;
  t.poison <- 0;
  t.owner <- 0;
  Atomic.set (cell t) ((version t + 1) lsl 2 lor state_to_int Live)

let mark_retire_era t ~era = t.retire_era <- era
let set_birth_era t ~era = t.birth_era <- era

let pp ppf t =
  Fmt.pf ppf "block#%d[%a v%d]" t.id pp_state (state t) (version t)
