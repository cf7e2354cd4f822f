(** Harris's lock-free linked list (DISC 2001): the paper's HList, plus the
    HHSList variant whose [get] is the Herlihy-Shavit wait-free search.

    Like HMList the list is sorted with mark-before-unlink deletion, but
    traversal is {e optimistic}: it walks {e past} marked nodes (following
    links out of logically-deleted — possibly already retired — nodes) and
    snips the whole marked chain between the last unmarked node ([left])
    and the first unmarked node with key ≥ target ([right]) in one CAS.
    This is exactly the Figure 2 pattern that plain HP cannot protect, so
    HList runs only under schemes with coarse protection or protect-on-
    retire (Table 1): RCU, NBR, VBR, HP++, PEBR, HP-RCU, HP-BRCU.

    [Make] is HList: [get] uses the helping search (participates in
    snipping).  [Make_hhs] is HHSList: [get] is a read-only traversal that
    skips marked nodes without writing — wait-free in the original, demoted
    to lock-free by schemes that can abort readers (paper footnote 9). *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Pool = Hpbrcu_alloc.Pool
module Link = Hpbrcu_core.Link
open Hpbrcu_core.Smr_intf

module type FLAVOUR = sig
  val helping_get : bool
  val flavour_name : string
end

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
  mutable key : int;
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

module Make_gen (F : FLAVOUR) (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let name =
    F.flavour_name ^ "(" ^ (caps (module S)).Hpbrcu_core.Caps.name ^ ")"

  let link_blk = function Link.Null _ -> Block.none | Link.Ptr p -> blk p.target

  (* Retire [x], whose successor link is [next].  Only a scheme that
     consumes patches (HP++) gets [x]'s patch set, its successor if any:
     the list and the optional argument's box are built for it alone. *)
  let retire_node h x next =
    if S.patches then
      S.retire h (blk x)
        ~patch:
          (match next with Link.Null _ -> [] | Link.Ptr p -> [ blk p.target ])
    else S.retire h (blk x)

  (* The list is its head sentinel (key = min_int). *)
  type t = node

  (* Traversal cursor: [left] = last unmarked node whose loaded link is
     [left_next] (the snip CAS's expected value); [node] = a loaded link
     whose target is the node under examination (null = end of list; its
     tag is ignored).  [node] and [left_next] share their target iff no
     marked chain is pending between them.  The live cursor is built
     afresh by each traversal's [init], a checkpoint slot by its
     first [save]. *)
  type cursor = {
    mutable left : node;
    mutable left_next : node Link.t;
    mutable node : node Link.t;
  }

  type session = {
    h : S.handle;
    prot : S.shield array;  (* left, left_next-target, node *)
    backup : S.shield array;
    mask0 : S.shield;
    mask1 : S.shield;
    mutable key : int;  (* the running operation's key ... *)
    mutable value : int;  (* ... the value an insert publishes ... *)
    mutable help : bool;  (* ... whether its search snips marked chains ... *)
    mutable found : bool;  (* ... and the search's answer *)
    mutable ds : t;  (* the structure the running operation acts on *)
    mutable live : cursor;  (* the live cursor *)
    slots : cursor array;  (* checkpoint slots 0 and 1 ... *)
    mutable saved : int;  (* ... bit [i] set once this traversal built [i] *)
    w : S.shield walker;
    get_body : unit -> bool;
        (* the bodies [S.op] and [S.mask] run, built once per session:
           their arguments travel in the fields above and in [live] *)
    insert_body : unit -> bool;
    remove_body : unit -> bool;
    unlink_body : unit -> bool;
    snip_body : unit -> bool;
  }

  (* Non-recycling schemes never read a node's pool: their lists share
     this one. *)
  let unused_pool = Pool.create ()

  let create () =
    mk_node ~recyclable:false ~era:0 min_int 0
      (if S.recycles then Pool.create () else unused_pool)

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
        n
    | None -> mk_node ~recyclable:S.recycles ~era key value t.pool

  let discard t n = Pool.discard ~recycles:S.recycles t.pool ~blk n

  (* A node's key, for a node no read has checked: load, then [deref]
     (for VBR the order matters: the validation after the load detects a
     recycled node's junk key).  Walks need none: they load the key
     before the hop's [read ~src], whose check covers the load. *)
  let key_of s (n : node) =
    let k = n.key in
    S.deref s.h (blk n);
    k

  let protect_cursor s (sh : S.shield array) =
    let c = s.live in
    S.protect sh.(0) (blk c.left);
    S.protect sh.(1) (link_blk c.left_next);
    S.protect sh.(2) (link_blk c.node)

  (* Revalidation (§3.3): resuming from [node] (or from [left] when at the
     end) requires it not logically deleted.  Checkpointed nodes are
     shield-protected, so the bare load is safe. *)
  let validate_cursor c =
    match c.node with
    | Link.Ptr { target = n; _ } ->
        Alloc.check_access (blk n);
        not (Link.is_marked (Link.get (next_cell n)))
    | Link.Null _ ->
        Alloc.check_access (blk c.left);
        not (Link.is_marked (Link.get (next_cell c.left)))

  let copy_cursor ~src ~dst =
    dst.left <- src.left;
    dst.left_next <- src.left_next;
    dst.node <- src.node

  (* A traversal's first save into slot [i] builds the slot; later ones
     copy into it. *)
  let save_cursor s i =
    let c = s.live in
    if s.saved land (1 lsl i) <> 0 then copy_cursor ~src:c ~dst:s.slots.(i)
    else begin
      s.slots.(i) <- { left = c.left; left_next = c.left_next; node = c.node };
      s.saved <- s.saved lor (1 lsl i)
    end

  (* Retire the frozen marked chain [from .. stop), patching successors for
     HP++.  Links of marked nodes are immutable, so the walk is stable. *)
  let rec retire_chain h stop = function
    | Link.Null _ -> ()
    | Link.Ptr { target = x; _ } when Link.points_to stop x -> ()
    | Link.Ptr { target = x; _ } ->
        let nx = Link.get (next_cell x) in
        retire_node h x nx;
        Pool.recycle ~recycles:S.recycles x.pool x;
        retire_chain h stop nx

  (* [snip_body]: snip the marked chain between the live cursor's left
     and node with one CAS on [left.next], retire the chain, and leave
     the new link in [left_next].  Abort-rollback-unsafe, so it runs
     masked, on outliving protections ({!finish_snip}). *)
  let snip s =
    let c = s.live in
    let desired = Link.with_tag c.node 0 in
    if Link.cas (next_cell c.left) ~expected:c.left_next ~desired then begin
      retire_chain s.h c.node c.left_next;
      c.left_next <- desired;
      true
    end
    else false

  let init_cursor t s =
    let ln = S.read s.h ~src:Block.none ~hdr:blk (next_cell t) in
    s.saved <- 0;
    s.live <- { left = t; left_next = ln; node = ln }

  (* The walk stops: write the cursor back to the session. *)
  let stop s left left_next node r =
    let c = s.live in
    c.left <- left;
    c.left_next <- left_next;
    c.node <- node;
    r

  let finish s left left_next node found =
    s.found <- found;
    stop s left left_next node walk_done

  (* Finish after snipping the marked chain between [left] and [node]. *)
  let finish_snip s left left_next node found =
    ignore (stop s left left_next node walk_done : int);
    S.protect s.mask0 (blk left);
    S.protect s.mask1 (link_blk node);
    if S.mask s.h s.snip_body then begin
      s.found <- found;
      walk_done
    end
    else walk_fail

  (* Harris's search, at most [n] steps of it, with the cursor in the
     arguments.  [s.help] enables chain snipping. *)
  let rec walk s key n left left_next node =
    if n = 0 then stop s left left_next node walk_more
    else begin
      s.w.steps <- s.w.steps + 1;
      match node with
      | Link.Null _ ->
          (* End of list.  If a marked chain dangles, snip it first. *)
          if s.help && not (Link.same left_next Link.null) then
            finish_snip s left left_next node false
          else finish s left left_next node false
      | Link.Ptr { target = tnode; _ } ->
          (* The key is loaded before the read: the read's access check
             (and VBR's validation) of [tnode] comes after the load and
             covers it, so the hop needs no [deref] of its own. *)
          let k = tnode.key in
          let t_next =
            S.read s.h ~src:(blk tnode) ~hdr:blk (next_cell tnode)
          in
          if Link.is_marked t_next then
            (* t is logically deleted: walk past it. *)
            walk s key (n - 1) left left_next t_next
          else if k < key then
            (* t is a live node below the key: becomes the new left. *)
            walk s key (n - 1) tnode t_next t_next
          else if Link.points_to left_next tnode then
            (* t = right, adjacent to left. *)
            finish s left left_next node (k = key)
          else if s.help then finish_snip s left left_next node (k = key)
          else finish s left left_next node (k = key)
    end

  (* Search [s.ds] for [s.key]; the cursor it stops at and its answer
     stay in the session, the cursor protected when [hold] (see
     {!S.traverse}).  Retried from the entry point when revalidation
     fails. *)
  let rec search s ~help ~hold =
    s.help <- help;
    if not (S.traverse s.h ~hold ~prot:s.prot ~backup:s.backup s.w) then
      search s ~help ~hold

  (* ---------------- operations ---------------- *)

  (* The operation bodies read their structure, key and value from the
     session: [get], [insert] and [remove] store them there and hand
     [S.op] the session's prebuilt body. *)
  let get_op s =
    search s ~help:F.helping_get ~hold:false;
    s.found

  (* The node is built only once the search has missed. *)
  let rec insert_op s =
    search s ~help:true ~hold:true;
    (not s.found) && link_node s (alloc_node s.ds s.key s.value)

  (* Link [n] in at the cursor of a search that missed; a lost CAS
     searches again with the same node. *)
  and link_node s n =
    (* After a helping search, left and right are adjacent: left_next's
       target is right (or null). *)
    let c = s.live in
    Link.set (next_cell n) (Link.with_tag c.left_next 0);
    Link.cas (next_cell c.left) ~expected:c.left_next ~desired:(Link.ptr n)
    || begin
         search s ~help:true ~hold:true;
         if s.found then begin
           discard s.ds n;
           false
         end
         else link_node s n
       end

  let rec remove_op s =
    search s ~help:true ~hold:true;
    if not s.found then false
    else
      let c = s.live in
      let right = Link.target_exn c.left_next in
      let r_next = S.read s.h ~src:(blk right) ~hdr:blk (next_cell right) in
      if Link.is_marked r_next then remove_op s
      else if
        Link.cas (next_cell right) ~expected:r_next
          ~desired:(Link.with_tag r_next 1)
      then begin
        (* Try to unlink immediately; otherwise later searches snip.
           The cursor's [node] becomes right's successor, the link the
           unlink CAS installs. *)
        S.protect s.mask0 (blk c.left);
        S.protect s.mask1 (blk right);
        c.node <- Link.with_tag r_next 0;
        ignore (S.mask s.h s.unlink_body : bool);
        true
      end
      else remove_op s

  (* [unlink_body]: swing the live cursor's [left] past [left_next]'s
     target to [node], and retire the target if that won. *)
  let unlink s =
    let c = s.live in
    Link.cas (next_cell c.left) ~expected:c.left_next ~desired:c.node
    && begin
         let right = Link.target_exn c.left_next in
         retire_node s.h right c.node;
         Pool.recycle ~recycles:S.recycles right.pool right;
         true
       end

  let session t =
    let h = S.register S.it in
    let shields n = Array.init n (fun _ -> S.new_shield h) in
    let prot = shields 3 in
    let backup = shields 3 in
    let mask0 = S.new_shield h in
    let mask1 = S.new_shield h in
    (* A placeholder for the live cursor and the slots until the first
       traversal's [init] and [save]s replace it. *)
    let idle = { left = t; left_next = Link.null; node = Link.null } in
    let rec s =
      {
        h;
        prot;
        backup;
        mask0;
        mask1;
        key = 0;
        value = 0;
        help = false;
        found = false;
        ds = t;
        live = idle;
        slots = [| idle; idle |];
        saved = 0;
        w =
          {
            init = (fun () -> init_cursor s.ds s);
            walk =
              (fun n ->
                let c = s.live in
                walk s s.key n c.left c.left_next c.node);
            save = (fun i -> save_cursor s i);
            restore =
              (fun i ->
                copy_cursor ~src:s.slots.(i) ~dst:s.live;
                validate_cursor s.live);
            protect = (fun sh -> protect_cursor s sh);
            resumable = true;
            steps = 0;
          };
        get_body = (fun () -> get_op s);
        insert_body = (fun () -> insert_op s);
        remove_body = (fun () -> remove_op s);
        unlink_body = (fun () -> unlink s);
        snip_body = (fun () -> snip s);
      }
    in
    s

  let get t s key =
    s.ds <- t;
    s.key <- key;
    S.op s.h s.get_body

  let insert t s key value =
    s.ds <- t;
    s.key <- key;
    s.value <- value;
    S.op s.h s.insert_body

  let remove t s key =
    s.ds <- t;
    s.key <- key;
    S.op s.h s.remove_body

  (* A single max_int search is not enough: [walk] advances [left]
     past a marked chain whenever the next live node's key is below the
     search key, so chains that precede a live node survive it — physically
     linked, invisible to the read-only [get], and never retired, which the
     leak-at-quiescence census (DESIGN.md §11) would book as stranded.
     Sweeping the live keys in order puts every marked chain between some
     search's left and right, where the snip CAS removes it. *)
  let cleanup t s =
    s.ds <- t;
    ignore
      (S.op s.h (fun () ->
           let rec sweep key =
             s.key <- key;
             search s ~help:true ~hold:true;
             match s.live.node with
             | Link.Ptr { target = n; _ } ->
                 let k = key_of s n in
                 if k < max_int then sweep (k + 1)
             | Link.Null _ -> ()
           in
           sweep min_int;
           true)
        : bool)
end

module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP =
  Make_gen
    (struct
      let helping_get = true
      let flavour_name = "HList"
    end)
    (S)

(** HHSList: Harris list with the Herlihy-Shavit read-only [get]. *)
module Make_hhs (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP =
  Make_gen
    (struct
      let helping_get = false
      let flavour_name = "HHSList"
    end)
    (S)
