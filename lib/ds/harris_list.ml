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
module Link = Hpbrcu_core.Link
open Hpbrcu_core.Smr_intf
open List_node

module type FLAVOUR = sig
  val helping_get : bool
  val flavour_name : string
end

module Make_gen (F : FLAVOUR) (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let name =
    F.flavour_name ^ "(" ^ (caps (module S)).Hpbrcu_core.Caps.name ^ ")"

  (* The list is its head sentinel (key = min_int). *)
  type t = node

  include List_node.Make (S)

  (* Traversal cursor: [left] = last unmarked node whose loaded link is
     [left_next] (the snip CAS's expected value); [node] = a loaded link
     whose target is the node under examination (null = end of list; its
     tag is ignored).  [node] and [left_next] share their target iff no
     marked chain is pending between them. *)
  type cursor = {
    mutable left : node;
    mutable left_next : node Link.t;
    mutable node : node Link.t;
  }

  module Sk =
    Session.Make
      (S)
      (struct
        type shield = S.shield
        type t = cursor

        let clone c = { left = c.left; left_next = c.left_next; node = c.node }

        let copy ~src ~dst =
          dst.left <- src.left;
          dst.left_next <- src.left_next;
          dst.node <- src.node

        (* Revalidation (§3.3): resuming from [node] (or from [left] when
           at the end) requires it not logically deleted.  Checkpointed
           nodes are shield-protected, so the bare load is safe. *)
        let validate c =
          match c.node with
          | Link.Ptr { target = n; _ } ->
              Alloc.check_access (blk n);
              not (Link.is_marked (Link.get (next_cell n)))
          | Link.Null _ ->
              Alloc.check_access (blk c.left);
              not (Link.is_marked (Link.get (next_cell c.left)))

        let protect (sh : S.shield array) c =
          S.protect sh.(0) (blk c.left);
          S.protect sh.(1) (link_blk c.left_next);
          S.protect sh.(2) (link_blk c.node)
      end)

  (* A session's own fields: the outliving shields of the masked regions
     and their bodies, built once per session ([unlink_body] and
     [snip_body] read the live cursor). *)
  type ext = {
    mask0 : S.shield;
    mask1 : S.shield;
    mutable unlink_body : unit -> bool;
    mutable snip_body : unit -> bool;
  }

  type session = (t, ext) Sk.session

  (* A node's key, for a node no read has checked: load, then [deref]
     (for VBR the order matters: the validation after the load detects a
     recycled node's junk key).  Walks need none: they load the key
     before the hop's [read ~src], whose check covers the load. *)
  let key_of (s : session) (n : node) =
    let k = n.key in
    S.deref s.h (blk n);
    k

  (* Retire the frozen marked chain [from .. stop), patching successors for
     HP++.  Links of marked nodes are immutable, so the walk is stable. *)
  let rec retire_chain h stop = function
    | Link.Null _ -> ()
    | Link.Ptr { target = x; _ } when Link.points_to stop x -> ()
    | Link.Ptr { target = x; _ } ->
        let nx = Link.get (next_cell x) in
        retire_node h x nx;
        retire_chain h stop nx

  (* [snip_body]: snip the marked chain between the live cursor's left
     and node with one CAS on [left.next], retire the chain, and leave
     the new link in [left_next].  Abort-rollback-unsafe, so it runs
     masked, on outliving protections ({!finish_snip}). *)
  let snip (s : session) =
    let c = s.live in
    let desired = Link.with_tag c.node 0 in
    if Link.cas (next_cell c.left) ~expected:c.left_next ~desired then begin
      retire_chain s.h c.node c.left_next;
      c.left_next <- desired;
      true
    end
    else false

  let init (s : session) =
    let ln = S.read s.h ~src:Block.none ~hdr:blk (next_cell s.ds) in
    { left = s.ds; left_next = ln; node = ln }

  (* The walk stops: write the cursor back to the session. *)
  let stop (s : session) left left_next node r =
    let c = s.live in
    c.left <- left;
    c.left_next <- left_next;
    c.node <- node;
    r

  let finish (s : session) left left_next node found =
    s.found <- found;
    stop s left left_next node walk_done

  (* Finish after snipping the marked chain between [left] and [node]. *)
  let finish_snip (s : session) left left_next node found =
    ignore (stop s left left_next node walk_done : int);
    S.protect s.x.mask0 (blk left);
    S.protect s.x.mask1 (link_blk node);
    if S.mask s.h s.x.snip_body then begin
      s.found <- found;
      walk_done
    end
    else walk_fail

  (* Whether the running search snips marked chains: an update's always
     does, a [get] only in HList.  Read where a walk stops, not carried
     through its steps (an argument more held across each step's [read]
     read ~1 ns more per node under NR). *)
  let helps (s : session) = s.holds || F.helping_get

  (* Harris's search, at most [n] steps of it, with the cursor in the
     arguments. *)
  let rec walk_from (s : session) key n left left_next node =
    if n = 0 then stop s left left_next node walk_more
    else begin
      s.w.steps <- s.w.steps + 1;
      match node with
      | Link.Null _ ->
          (* End of list.  If a marked chain dangles, snip it first. *)
          if helps s && not (Link.same left_next Link.null) then
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
            walk_from s key (n - 1) left left_next t_next
          else if k < key then
            (* t is a live node below the key: becomes the new left. *)
            walk_from s key (n - 1) tnode t_next t_next
          else if Link.points_to left_next tnode then
            (* t = right, adjacent to left. *)
            finish s left left_next node (k = key)
          else if helps s then finish_snip s left left_next node (k = key)
          else finish s left left_next node (k = key)
    end

  let walk (s : session) n =
    let c = s.live in
    walk_from s s.key n c.left c.left_next c.node

  (* ---------------- operations ---------------- *)

  (* The node is built only once the search has missed. *)
  let rec insert_op (s : session) =
    (not (Sk.search s)) && link_node s (alloc_node s.ds s.key s.value)

  (* Link [n] in at the cursor of a search that missed; a lost CAS
     searches again with the same node. *)
  and link_node (s : session) n =
    (* After a helping search, left and right are adjacent: left_next's
       target is right (or null). *)
    let c = s.live in
    Link.set (next_cell n) (Link.with_tag c.left_next 0);
    Link.cas (next_cell c.left) ~expected:c.left_next ~desired:(Link.ptr n)
    || begin
         if Sk.search s then begin
           discard s.ds n;
           false
         end
         else link_node s n
       end

  let rec remove_op (s : session) =
    Sk.search s
    &&
    let c = s.live in
    let right = Link.target_exn c.left_next in
    let r_next = S.read s.h ~src:(blk right) ~hdr:blk (next_cell right) in
    if Link.is_marked r_next then remove_op s
    else if
      Link.cas (next_cell right) ~expected:r_next
        ~desired:(Link.with_tag r_next 1)
    then begin
      (* Try to unlink immediately; otherwise later searches snip.  The
         cursor's [node] becomes right's successor, the link the unlink
         CAS installs. *)
      S.protect s.x.mask0 (blk c.left);
      S.protect s.x.mask1 (blk right);
      c.node <- Link.with_tag r_next 0;
      ignore (S.mask s.h s.x.unlink_body : bool);
      true
    end
    else remove_op s

  (* [unlink_body]: swing the live cursor's [left] past [left_next]'s
     target to [node], and retire the target if that won. *)
  let unlink (s : session) =
    let c = s.live in
    Link.cas (next_cell c.left) ~expected:c.left_next ~desired:c.node
    && begin
         let right = Link.target_exn c.left_next in
         retire_node s.h right c.node;
         true
       end

  let session t =
    let ext h =
      let mask0 = S.new_shield h in
      let mask1 = S.new_shield h in
      { mask0; mask1; unlink_body = Fun.const false; snip_body = Fun.const false }
    in
    let s =
      Sk.create ~shields:3
        ~idle:{ left = t; left_next = Link.null; node = Link.null }
        ~ext ~init ~walk ~insert:insert_op ~remove:remove_op t
    in
    s.x.unlink_body <- (fun () -> unlink s);
    s.x.snip_body <- (fun () -> snip s);
    s

  let close_session = Sk.close_session
  let get = Sk.get
  let insert = Sk.insert
  let remove = Sk.remove

  (* A single max_int search is not enough: [walk] advances [left]
     past a marked chain whenever the next live node's key is below the
     search key, so chains that precede a live node survive it — physically
     linked, invisible to the read-only [get], and never retired, which the
     leak-at-quiescence census (DESIGN.md §11) would book as stranded.
     Sweeping the live keys in order puts every marked chain between some
     search's left and right, where the snip CAS removes it. *)
  let cleanup t (s : session) =
    s.ds <- t;
    ignore
      (S.op s.h (fun () ->
           let rec sweep key =
             s.key <- key;
             ignore (Sk.search s : bool);
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
