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

(* A node is its own [next] cell and its own block (DESIGN.md §9,
   "objects per hop"): [next_] must stay field 0, read and set only
   through {!next_cell}, and [Block.t]'s fields follow it (the
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
  mutable key : int;
  mutable value : int;
  lock : bool Atomic.t;
  marked : bool Atomic.t;  (* logical deletion flag (not a link tag) *)
}

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
    lock = Atomic.make false;
    marked = Atomic.make false;
  }

module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let name = "LazyList(" ^ (caps (module S)).Hpbrcu_core.Caps.name ^ ")"

  let link_blk = function Link.Null _ -> Block.none | Link.Ptr p -> blk p.target

  type t = { head : node; pool : node Pool.t }

  (* The traversal cursor; a session keeps the live cursor and the
     walker's two checkpoint slots in records like this. *)
  type cursor = { mutable prev : node; mutable pnext : node Link.t }

  type session = {
    h : S.handle;
    prot : S.shield array;
    backup : S.shield array;
    mutable key : int;  (* the running search's key and answer *)
    mutable found : bool;
    mutable ds : t;  (* the structure the running search walks *)
    mutable live : cursor;
    slots : cursor array;  (* checkpoint slots 0 and 1 *)
    w : S.shield walker;
  }

  let create () =
    { head = mk_node ~recyclable:false ~era:0 min_int 0; pool = Pool.create () }

  let close_session s =
    S.flush s.h;
    S.unregister s.h

  let alloc_node t key value =
    let era = S.current_era S.it in
    match Pool.reuse ~recycles:S.recycles t.pool ~blk ~era with
    | Some n ->
        n.key <- key;
        n.value <- value;
        Link.set (next_cell n) Link.null;
        Atomic.set n.lock false;
        Atomic.set n.marked false;
        n
    | None -> mk_node ~recyclable:S.recycles ~era key value

  let discard t n = Pool.discard ~recycles:S.recycles t.pool ~blk n

  (* Spin lock; only ever taken in write phases on shield-protected
     nodes.  Never called while the deadline-protected section holds
     another resource without a Fun.protect (see callers). *)
  let acquire n = Sched.wait_until (fun () -> Atomic.compare_and_set n.lock false true)
  let release n = Atomic.set n.lock false

  let with_locked2 a b f =
    acquire a;
    Fun.protect
      ~finally:(fun () -> release a)
      (fun () ->
        acquire b;
        Fun.protect ~finally:(fun () -> release b) f)

  let with_locked a f =
    acquire a;
    Fun.protect ~finally:(fun () -> release a) f

  (* ---------------- traversal ---------------- *)

  let protect_cursor s (sh : S.shield array) =
    let c = s.live in
    S.protect sh.(0) (blk c.prev);
    S.protect sh.(1) (link_blk c.pnext)

  (* Resuming follows prev.next: prev must not be logically deleted. *)
  let validate_cursor c =
    Alloc.check_access (blk c.prev);
    not (Atomic.get c.prev.marked)

  let copy_cursor ~src ~dst =
    dst.prev <- src.prev;
    dst.pnext <- src.pnext

  let init_cursor t s =
    let pnext = S.read s.h ~src:Block.none ~hdr:blk (next_cell t.head) in
    let cursor () = { prev = t.head; pnext } in
    s.live <- cursor ();
    s.slots.(0) <- cursor ();
    s.slots.(1) <- cursor ()

  let finish s prev pnext found =
    s.found <- found;
    s.live.prev <- prev;
    s.live.pnext <- pnext;
    walk_done

  (* Pure read steps, at most [n] of them, with the cursor in the
     arguments: walk (possibly across marked nodes) until key ≥ k.  No
     helping — physical removal is the remover's job, under locks. *)
  let rec walk s key n prev pnext =
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
            walk s key (n - 1) cur
              (S.read s.h ~src:(blk cur) ~hdr:blk (next_cell cur))
          else begin
            S.deref s.h (blk cur);
            finish s prev pnext (k = key && not (Atomic.get cur.marked))
          end
    end

  let session t =
    let h = S.register S.it in
    let shields n = Array.init n (fun _ -> S.new_shield h) in
    let prot = shields 2 in
    let backup = shields 2 in
    let cursor () = { prev = t.head; pnext = Link.null } in
    let rec s =
      {
        h;
        prot;
        backup;
        key = 0;
        found = false;
        ds = t;
        live = cursor ();
        slots = [| cursor (); cursor () |];
        w =
          {
            init = (fun () -> init_cursor s.ds s);
            walk = (fun n -> walk s s.key n s.live.prev s.live.pnext);
            save = (fun i -> copy_cursor ~src:s.live ~dst:s.slots.(i));
            restore =
              (fun i ->
                copy_cursor ~src:s.slots.(i) ~dst:s.live;
                validate_cursor s.live);
            protect = (fun sh -> protect_cursor s sh);
            resumable = true;
            steps = 0;
          };
      }
    in
    s

  (* Search for [key]; the cursor and the answer stay in the session, the
     cursor protected when [hold]. *)
  let rec search t s key ~hold =
    s.ds <- t;
    s.key <- key;
    if not (S.traverse s.h ~hold ~prot:s.prot ~backup:s.backup s.w) then
      search t s key ~hold

  (* Heller et al.'s two-node validation, under locks. *)
  let validate_locked prev cur_opt pnext =
    (not (Atomic.get prev.marked))
    && Link.get (next_cell prev) == pnext
    && match cur_opt with Some c -> not (Atomic.get c.marked) | None -> true

  (* ---------------- operations ---------------- *)

  let get t s key =
    S.op s.h (fun () ->
        search t s key ~hold:false;
        s.found)

  let insert t s key value =
    S.op s.h (fun () ->
        let n = alloc_node t key value in
        let rec go () =
          search t s key ~hold:true;
          if s.found then begin
            discard t n;
            false
          end
          else
            let c = s.live in
            let outcome =
              with_locked c.prev (fun () ->
                  if not (validate_locked c.prev None c.pnext) then `Retry
                  else
                    match c.pnext with
                    | Link.Ptr { target = cur; _ }
                      when cur.key = key && not (Atomic.get cur.marked) ->
                        `Present
                    | _ ->
                        Link.set (next_cell n) (Link.with_tag c.pnext 0);
                        Link.set (next_cell c.prev) (Link.ptr n);
                        `Inserted)
            in
            match outcome with
            | `Inserted -> true
            | `Present ->
                discard t n;
                false
            | `Retry -> go ()
        in
        go ())

  let remove t s key =
    S.op s.h (fun () ->
        let rec go () =
          search t s key ~hold:true;
          if not s.found then false
          else
            let c = s.live in
            let cur = Link.target_exn c.pnext in
            let outcome =
              with_locked2 c.prev cur (fun () ->
                  if not (validate_locked c.prev (Some cur) c.pnext) then `Retry
                  else begin
                    (* Logical then physical deletion, both under locks. *)
                    Atomic.set cur.marked true;
                    Link.set (next_cell c.prev) (Link.get (next_cell cur));
                    `Removed
                  end)
            in
            match outcome with
            | `Removed ->
                S.retire s.h (blk cur)
                  ~patch:(match Link.get (next_cell cur) with
                         | Link.Null _ -> []
                         | Link.Ptr { target = nx; _ } -> [ blk nx ]);
                Pool.recycle ~recycles:S.recycles t.pool cur;
                true
            | `Retry -> go ()
        in
        go ())

  let cleanup t s = ignore (get t s max_int : bool)
end
