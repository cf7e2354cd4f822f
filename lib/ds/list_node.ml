(** The sorted list's node, shared by Harris's list ({!Harris_list}: HList
    and HHSList) and Michael's ({!Hm_list}: HMList).  The paper treats
    them as one sorted list with two ways of walking it (Table 1,
    Algorithm 8): the node, its allocation and its retirement are the
    same; only the cursor, the walk and the operation bodies differ.

    LazyList keeps a node of its own: it adds a lock and a mark. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Pool = Hpbrcu_alloc.Pool
module Link = Hpbrcu_core.Link

(* [pool] is the list's free pool, shared by all of its nodes: only the
   recycling branches read it, and keeping it in every node lets the list
   itself be its head node (a HashMap bucket slot then points straight at
   the head, one dependent load fewer per operation).

   A node is one object (DESIGN.md §9, "objects per hop"): its own [next]
   cell and its own block.  [next_] must stay field 0, read, set and CAS'd
   only through {!next_cell}, so a hop goes node -> link -> node with no
   [Atomic.t] box in between; [Block.t]'s fields follow it (the
   header-prefix rule), read and CAS'd only through {!blk}. *)
type node = {
  mutable next_ : node Link.t;
  mutable word : int;
  id : int;
  recyclable : bool;
  mutable birth_era : int;
  mutable retire_era : int;
  mutable poison : int;
  mutable owner : int;
  mutable key : int;  (* mutable only for pool reuse (VBR) *)
  mutable value : int;
  pool : node Pool.t;
}

(* The atomic view of [next_], and the node's block. *)
external next_cell : node -> node Link.cell = "%identity"
external blk : node -> Block.t = "%identity"

(** A fresh node, [Live] and born at [era].  Its link is the shared null:
    the end of the list for a head, and set by an insert before it
    publishes any other node. *)
let mk_node ~recyclable ~era key value pool =
  {
    next_ = Link.null;
    word = Block.live; id = Alloc.fresh_id (); recyclable;
    birth_era = era; retire_era = -1; poison = 0; owner = 0;
    key;
    value;
    pool;
  }

(* Outside the functor: a cursor's [protect] calls it on every
   checkpoint, and a call into a functor's result is an indirect one. *)
let link_blk = function Link.Null _ -> Block.none | Link.Ptr p -> blk p.target

module Make (S : Hpbrcu_core.Smr_intf.S) = struct
  (* Retire [x], whose successor link is [next], and give it back to the
     pool under a recycling scheme.  Only a scheme that consumes patches
     (HP++) gets [x]'s patch set, its successor if any: the list and the
     optional argument's box are built for it alone. *)
  let retire_node h x next =
    if S.patches then
      S.retire h (blk x)
        ~patch:
          (match next with Link.Null _ -> [] | Link.Ptr p -> [ blk p.target ])
    else S.retire h (blk x);
    Pool.recycle ~recycles:S.recycles x.pool x

  (* Non-recycling schemes never read a node's pool: their lists share
     this one. *)
  let unused_pool = Pool.create ()

  let create () =
    mk_node ~recyclable:false ~era:0 min_int 0
      (if S.recycles then Pool.create () else unused_pool)

  let alloc_node t key value =
    let era = S.current_era S.it in
    match Pool.reuse ~recycles:S.recycles t.pool ~blk ~era with
    | Some n ->
        n.key <- key;
        n.value <- value;
        Link.set (next_cell n) Link.null;
        n
    | None -> mk_node ~recyclable:S.recycles ~era key value t.pool

  let discard t n = Pool.discard ~recycles:S.recycles t.pool ~blk n
end
