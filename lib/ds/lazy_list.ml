(** Lazy concurrent list (Heller et al., OPODIS 2005) — Table 1's first
    row: a {e lock-based} sorted list with wait-free lookup.

    Updates lock the two affected nodes, validate (neither marked, still
    adjacent), mutate, unlock.  Lookups are plain optimistic traversals
    that may walk across marked (logically deleted) nodes — which is why
    HP cannot protect them (✗ in Table 1) while coarse-grained schemes and
    the HP-(B)RCU family can (▲: the wait-free lookup becomes lock-free
    under schemes that may abort readers).

    SMR interaction: lock acquisition is abort-rollback-unsafe, so locking
    happens strictly in write phases (outside critical sections), on nodes
    protected by the traversal's returned shields.  DEBRA+ could not run
    this structure for precisely that reason (§2.3: "does not apply to
    data structures that internally use locks"); with HP-BRCU the
    traversal-only critical section never sees a lock. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Pool = Hpbrcu_alloc.Pool
module Link = Hpbrcu_core.Link
module Sched = Hpbrcu_runtime.Sched
open Hpbrcu_core.Smr_intf

(* A node is one object: its own [next] cell, its own block and its own
   lock (DESIGN.md §9, "objects per hop"): [next_] must stay field 0,
   read and set only through {!next_cell}, and [Block.t]'s fields follow
   it (the header-prefix rule), read and CAS'd only through {!blk}.
   [lock] and [marked] are ints written only by {!Block.cas_int} at
   {!lock_field} and {!marked_field}, and read by plain loads, as
   [word] is (DESIGN.md §2.1). *)
type node = {
  mutable next_ : node Link.t;
  mutable word : int;
  id : int;
  recyclable : bool;
  mutable birth_era : int;
  mutable retire_era : int;
  mutable poison : int;
  mutable owner : int;
  mutable key : int;
  mutable value : int;
  mutable lock : int;  (* 1 = held *)
  mutable marked : int;  (* 1 = logically deleted (not a link tag) *)
}

let lock_field = 10
let marked_field = 11

(* The two indices name [lock] and [marked]: checked once, on a record
   that is not a node of any list. *)
let () =
  let probe =
    {
      next_ = Link.null;
      word = Block.live; id = -1; recyclable = false;
      birth_era = 0; retire_era = -1; poison = 0; owner = 0;
      key = 0;
      value = 0;
      lock = 1;
      marked = 2;
    }
  in
  assert (Obj.field (Obj.repr probe) lock_field == Obj.repr 1);
  assert (Obj.field (Obj.repr probe) marked_field == Obj.repr 2)

(* The atomic view of [next_], and the node's block. *)
external next_cell : node -> node Link.cell = "%identity"
external blk : node -> Block.t = "%identity"

(** A fresh node, [Live] and born at [era].  Its link is the shared null:
    the end of the list for a head, and set by an insert before it
    publishes any other node. *)
let mk_node ~recyclable ~era key value =
  {
    next_ = Link.null;
    word = Block.live; id = Alloc.fresh_id (); recyclable;
    birth_era = era; retire_era = -1; poison = 0; owner = 0;
    key;
    value;
    lock = 0;
    marked = 0;
  }

module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let name = "LazyList(" ^ (caps (module S)).Hpbrcu_core.Caps.name ^ ")"

  let link_blk = function Link.Null _ -> Block.none | Link.Ptr p -> blk p.target

  type t = { head : node; pool : node Pool.t }

  (* The traversal cursor. *)
  type cursor = { mutable prev : node; mutable pnext : node Link.t }

  module Sk =
    Session.Make
      (S)
      (struct
        type shield = S.shield
        type t = cursor

        let clone c = { prev = c.prev; pnext = c.pnext }

        let copy ~src ~dst =
          dst.prev <- src.prev;
          dst.pnext <- src.pnext

        (* Resuming follows prev.next: prev must not be logically
           deleted. *)
        let validate c =
          Alloc.check_access (blk c.prev);
          c.prev.marked = 0

        let protect (sh : S.shield array) c =
          S.protect sh.(0) (blk c.prev);
          S.protect sh.(1) (link_blk c.pnext)
      end)

  type session = (t, unit) Sk.session

  let create () =
    { head = mk_node ~recyclable:false ~era:0 min_int 0; pool = Pool.create () }

  let alloc_node t key value =
    let era = S.current_era S.it in
    match Pool.reuse ~recycles:S.recycles t.pool ~blk ~era with
    | Some n ->
        n.key <- key;
        n.value <- value;
        Link.set (next_cell n) Link.null;
        n.lock <- 0;
        n.marked <- 0;
        n
    | None -> mk_node ~recyclable:S.recycles ~era key value

  let discard t n = Pool.discard ~recycles:S.recycles t.pool ~blk n

  (* Spin lock; only ever taken in write phases on shield-protected
     nodes.  A spin pauses as {!Sched.wait_until} does, and may raise
     [Sched.Deadline] from a pause: a caller that already holds a lock
     releases it then (see [remove_op]).  The code under a lock neither
     yields nor raises. *)
  let rec spin n spins =
    if not (Block.cas_int n lock_field ~expected:0 ~desired:1) then begin
      let spins = spins + 1 in
      Sched.spin_pause spins;
      spin n spins
    end

  let acquire n = spin n 0

  let release n =
    ignore (Block.cas_int n lock_field ~expected:1 ~desired:0 : bool)

  (* ---------------- traversal ---------------- *)

  let init (s : session) =
    let pnext = S.read s.h ~src:Block.none ~hdr:blk (next_cell s.ds.head) in
    { prev = s.ds.head; pnext }

  let finish (s : session) prev pnext found =
    s.found <- found;
    s.live.prev <- prev;
    s.live.pnext <- pnext;
    walk_done

  (* Pure read steps, at most [n] of them, with the cursor in the
     arguments: walk (possibly across marked nodes) until key ≥ k.  No
     helping — physical removal is the remover's job, under locks. *)
  let rec walk_from (s : session) key n prev pnext =
    if n = 0 then begin
      s.live.prev <- prev;
      s.live.pnext <- pnext;
      walk_more
    end
    else begin
      s.w.steps <- s.w.steps + 1;
      match pnext with
      | Link.Null _ -> finish s prev pnext false
      | Link.Ptr { target = cur; _ } ->
          (* A node walked past is the next read's [src]: that read's
             access check (and VBR's validation) follows the key load and
             covers it.  Only the node the walk stops at needs a [deref]. *)
          let k = cur.key in
          if k < key then
            walk_from s key (n - 1) cur
              (S.read s.h ~src:(blk cur) ~hdr:blk (next_cell cur))
          else begin
            S.deref s.h (blk cur);
            finish s prev pnext (k = key && cur.marked = 0)
          end
    end

  let walk (s : session) n = walk_from s s.key n s.live.prev s.live.pnext

  (* Heller et al.'s validation, under locks: [prev] is live and still
     links to [pnext]. *)
  let validate_locked prev pnext =
    prev.marked = 0 && Link.get (next_cell prev) == pnext

  (* ---------------- operations ---------------- *)

  (* The node is built only once the search has missed. *)
  let rec insert_op (s : session) =
    (not (Sk.search s)) && link_node s (alloc_node s.ds s.key s.value)

  (* Link [n] in under [prev]'s lock at the cursor of a search that
     missed; a failed validation searches again with the same node. *)
  and link_node (s : session) n =
    let c = s.live in
    let prev = c.prev and pnext = c.pnext in
    acquire prev;
    let outcome =
      if not (validate_locked prev pnext) then `Retry
      else
        match pnext with
        | Link.Ptr { target = cur; _ } when cur.key = s.key && cur.marked = 0
          ->
            `Present
        | _ ->
            Link.set (next_cell n) (Link.with_tag pnext 0);
            Link.set (next_cell prev) (Link.ptr n);
            `Inserted
    in
    release prev;
    match outcome with
    | `Inserted -> true
    | `Present ->
        discard s.ds n;
        false
    | `Retry ->
        if Sk.search s then begin
          discard s.ds n;
          false
        end
        else link_node s n

  let rec remove_op (s : session) =
    Sk.search s
    &&
    let c = s.live in
    let prev = c.prev and pnext = c.pnext in
    let cur = Link.target_exn pnext in
    acquire prev;
    (match acquire cur with
    | () -> ()
    | exception e ->
        release prev;
        raise e);
    let removed =
      validate_locked prev pnext && cur.marked = 0
      && begin
           (* Logical then physical deletion, both under locks. *)
           ignore (Block.cas_int cur marked_field ~expected:0 ~desired:1 : bool);
           Link.set (next_cell prev) (Link.get (next_cell cur));
           true
         end
    in
    release cur;
    release prev;
    if removed then begin
      (if S.patches then
         S.retire s.h (blk cur)
           ~patch:
             (match Link.get (next_cell cur) with
             | Link.Null _ -> []
             | Link.Ptr { target = nx; _ } -> [ blk nx ])
       else S.retire s.h (blk cur));
      Pool.recycle ~recycles:S.recycles s.ds.pool cur;
      true
    end
    else remove_op s

  let session t =
    Sk.create ~shields:2 ~idle:{ prev = t.head; pnext = Link.null }
      ~ext:ignore ~init ~walk ~insert:insert_op ~remove:remove_op t

  let close_session = Sk.close_session
  let get = Sk.get
  let insert = Sk.insert
  let remove = Sk.remove
  let cleanup t s = ignore (get t s max_int : bool)
end
