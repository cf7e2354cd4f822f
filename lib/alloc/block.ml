(** Lifecycle headers for manually-reclaimed heap blocks.

    OCaml's GC never exposes frees, so the paper's central objects —
    "retired blocks", "reclaimed blocks", "use-after-free" — are modelled
    explicitly: every node managed by a reclamation scheme embeds a
    [Block.t] whose atomic [state] walks the lifecycle

    {v  Live --retire--> Retired --reclaim--> Reclaimed --(pool)--> Live  v}

    A scheme is correct iff no thread ever {e accesses} a [Reclaimed] block
    (checked by {!Alloc.check_access} on every mediated read) and no block
    is retired or reclaimed twice (checked by the transitions here).

    The [version]/[birth_era] fields exist for VBR, whose whole design is to
    reclaim instantly into a type-stable pool and detect stale readers by
    version arithmetic rather than by blocking reuse. *)

type state = Live | Retired | Reclaimed

let state_to_int = function Live -> 0 | Retired -> 1 | Reclaimed -> 2
let state_of_int = function 0 -> Live | 1 -> Retired | 2 -> Reclaimed | _ -> assert false

let pp_state ppf s =
  Fmt.string ppf (match s with Live -> "Live" | Retired -> "Retired" | Reclaimed -> "Reclaimed")

type t = {
  id : int;  (** unique allocation id (stable across pool reuse) *)
  state : int Atomic.t;
  version : int Atomic.t;
      (** bumped each time the block is recycled through a pool; VBR's
          stale-read detector *)
  birth_era : int Atomic.t;  (** VBR: global era at (re)allocation *)
  retire_era : int Atomic.t;  (** VBR: global era at retirement; -1 = live *)
  recyclable : bool;
      (** pool-managed blocks may legally be observed post-reclaim (VBR);
          access checks skip them *)
  poison : int Atomic.t;
      (** poison stamp written at reclaim time when the allocator's
          poisoning mode is on: [1 + version-at-free], the simulation's
          0xdeadbeef.  0 = not poisoned.  Cleared by {!reanimate}, so a
          read of a poisoned block is provably a read of freed memory of a
          specific incarnation, not of a recycled successor. *)
  owner : int Atomic.t;
      (** reclamation-domain owner slot ({!Alloc.Owner}), stamped at retire
          time by the retiring domain; 0 = untagged.  This is the P0484
          [rcu_obj_base] idea flipped inside out: instead of embedding a
          deleter closure in the object header, the header carries the
          domain id and the allocator debits that domain's unreclaimed
          watermark at reclaim time — intrusive accounting with no
          per-retire closure. *)
}

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
    id;
    state = Atomic.make (state_to_int Live);
    version = Atomic.make 0;
    birth_era = Atomic.make 0;
    retire_era = Atomic.make (-1);
    recyclable;
    poison = Atomic.make 0;
    owner = Atomic.make 0;
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
let owner t = Atomic.get t.owner
let set_owner t o = Atomic.set t.owner o
let state t = state_of_int (Atomic.get t.state)
let version t = Atomic.get t.version
let birth_era t = Atomic.get t.birth_era
let retire_era t = Atomic.get t.retire_era
let recyclable t = t.recyclable

let is_live t = state t = Live
let is_retired t = state t = Retired
(* The fast path of every mediated read's access check, so one load and
   an int compare: 2 is [state_to_int Reclaimed]. *)
let[@inline] is_reclaimed t = Atomic.get t.state = 2

(** Atomically transition [from -> to_]; returns [false] if the block was
    not in [from] (e.g. a double retire). *)
let transition t ~from ~to_ =
  Atomic.compare_and_set t.state (state_to_int from) (state_to_int to_)

(** [poison t] — stamp the block as freed (the stamp encodes the dying
    incarnation's version); {!is_poisoned} then identifies any later read
    as a use-after-free of that incarnation.  Idempotent. *)
let poison t = Atomic.set t.poison (1 + Atomic.get t.version)

let unpoison t = Atomic.set t.poison 0
let is_poisoned t = Atomic.get t.poison <> 0

(** Reset a recycled block to [Live], bumping its version.  Only the pool
    calls this. *)
let reanimate t ~era =
  assert t.recyclable;
  Atomic.incr t.version;
  Atomic.set t.birth_era era;
  Atomic.set t.retire_era (-1);
  Atomic.set t.poison 0;
  Atomic.set t.owner 0;
  Atomic.set t.state (state_to_int Live)

let mark_retire_era t ~era = Atomic.set t.retire_era era
let set_birth_era t ~era = Atomic.set t.birth_era era

let pp ppf t =
  Fmt.pf ppf "block#%d[%a v%d]" t.id pp_state (state t) (version t)
