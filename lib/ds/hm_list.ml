(** Harris-Michael lock-free linked list (Michael, SPAA 2002) — the paper's
    running example (Algorithms 3 and 8).

    Sorted singly-linked list with logical deletion: a node is deleted by
    first marking its [next] link (tag bit) and then physically unlinking it
    with a CAS on the predecessor.  Traversals {e help}: on meeting a marked
    node they attempt the unlink themselves and retire the node — the write
    during traversal that makes HMList inapplicable to NBR (Table 1) and
    the reason HP-BRCU wraps it in an abort-masked region (Algorithm 8's
    Mask).

    Unlike Harris's original list, nodes are unlinked one at a time from an
    unmarked predecessor, which is what makes plain HP's
    protect-and-validate applicable (Table 1, "linked list (Michael)"). *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Link = Hpbrcu_core.Link
open Hpbrcu_core.Smr_intf
open List_node

module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let name = "HMList(" ^ (caps (module S)).Hpbrcu_core.Caps.name ^ ")"

  (* The list is its head sentinel (key = min_int). *)
  type t = node

  include List_node.Make (S)

  (* The traversal cursor: [prev] and the link loaded from [prev.next]
     (whose target is [cur]).  Keeping the loaded link (not just the
     target) gives CASes their physical-equality expected value. *)
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

        (* ListCursor.validate: the node the resumed traversal will
           dereference must not be logically deleted (checking the mark
           suffices for revalidation, §3.3).  Cursor nodes are
           checkpoint-protected, hence unreclaimed, so bare loads are
           safe here. *)
        let validate c =
          match c.pnext with
          | Link.Null _ ->
              Alloc.check_access (blk c.prev);
              not (Link.is_marked (Link.get (next_cell c.prev)))
          | Link.Ptr { target = cur; _ } ->
              Alloc.check_access (blk cur);
              not (Link.is_marked (Link.get (next_cell cur)))

        (* ListCursorProtector.protect: publish both cursor nodes. *)
        let protect (sh : S.shield array) c =
          S.protect sh.(0) (blk c.prev);
          S.protect sh.(1) (link_blk c.pnext)
      end)

  (* A session's own fields: outliving shields for masked regions
     (Alg. 8). *)
  type ext = { mask0 : S.shield; mask1 : S.shield }
  type session = (t, ext) Sk.session

  (* ---------------- Traverse plumbing (Algorithm 8) ---------------- *)

  let init (s : session) =
    let pnext = S.read s.h ~src:Block.none ~hdr:blk (next_cell s.ds) in
    { prev = s.ds; pnext }

  (* The walk stops: write the cursor back to the session. *)
  let stop (s : session) prev pnext r =
    s.live.prev <- prev;
    s.live.pnext <- pnext;
    r

  let finish (s : session) prev pnext found =
    s.found <- found;
    stop s prev pnext walk_done

  (* [cur] is logically deleted: help unlink it from [prev] and retire it.
     The unlink + retire pair is abort-rollback-unsafe, so it runs masked
     on outliving protections (Algorithm 8 lines 23-27). *)
  let help_unlink (s : session) prev pnext cur next desired =
    S.protect s.x.mask0 (blk prev);
    S.protect s.x.mask1 (blk cur);
    S.mask s.h (fun () ->
        if Link.cas (next_cell prev) ~expected:pnext ~desired then begin
          retire_node s.h cur next;
          true
        end
        else false)

  (* Algorithm 8's step closure, at most [n] steps of it, with the cursor
     in the arguments. *)
  let rec walk_from (s : session) key n prev pnext =
    if n = 0 then stop s prev pnext walk_more
    else begin
      s.w.steps <- s.w.steps + 1;
      match pnext with
      | Link.Null _ -> finish s prev pnext false (* reached the end: key absent *)
      | Link.Ptr { target = cur; _ } ->
          (* Key before read: the read's access check (and VBR's
             validation) of [cur] follows the load and covers it, so the
             hop needs no [deref] (DESIGN.md §9). *)
          let k = cur.key in
          let next = S.read s.h ~src:(blk cur) ~hdr:blk (next_cell cur) in
          if Link.is_marked next then begin
            let desired = Link.with_tag next 0 in
            if help_unlink s prev pnext cur next desired then
              walk_from s key (n - 1) prev desired
            else walk_fail
          end
          else if k >= key then finish s prev pnext (k = key)
          else walk_from s key (n - 1) cur next
    end

  let walk (s : session) n = walk_from s s.key n s.live.prev s.live.pnext

  (* ---------------- operations ---------------- *)

  (* The node is built only once the search has missed. *)
  let rec insert_op (s : session) =
    (not (Sk.search s)) && link_node s (alloc_node s.ds s.key s.value)

  (* Link [n] in at the cursor of a search that missed; a lost CAS
     searches again with the same node. *)
  and link_node (s : session) n =
    let c = s.live in
    Link.set (next_cell n) (Link.with_tag c.pnext 0);
    Link.cas (next_cell c.prev) ~expected:c.pnext ~desired:(Link.ptr n)
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
    let prev = s.live.prev and pnext = s.live.pnext in
    let cur = Link.target_exn pnext in
    let next = S.read s.h ~src:(blk cur) ~hdr:blk (next_cell cur) in
    if Link.is_marked next then remove_op s (* lost the race *)
    else if
      (* Logical deletion: mark cur's next link. *)
      Link.cas (next_cell cur) ~expected:next ~desired:(Link.with_tag next 1)
    then begin
      (* Physical deletion; on failure a helping traversal will finish
         the job (and retire the node). *)
      let desired = Link.with_tag next 0 in
      if Link.cas (next_cell prev) ~expected:pnext ~desired then
        retire_node s.h cur next
      else ignore (Sk.search s : bool);
      true
    end
    else remove_op s

  let session t =
    let ext h =
      let mask0 = S.new_shield h in
      let mask1 = S.new_shield h in
      { mask0; mask1 }
    in
    Sk.create ~shields:2 ~idle:{ prev = t; pnext = Link.null } ~ext ~init
      ~walk ~insert:insert_op ~remove:remove_op t

  let close_session = Sk.close_session
  let get = Sk.get
  let insert = Sk.insert
  let remove = Sk.remove

  (* Walk the whole list once, helping every pending unlink. *)
  let cleanup t s = ignore (get t s max_int : bool)
end
