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

module Make_gen (F : FLAVOUR) (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let name = F.flavour_name ^ "(" ^ S.name ^ ")"

  type node = {
    blk : Block.t;
    mutable key : int;
    mutable value : int;
    next : node Link.cell;
  }

  let blk n = n.blk
  let link_blk = function Link.Null _ -> Block.none | Link.Ptr p -> p.target.blk

  (* HP++'s patch set of a retired node: its successor, if any. *)
  let patch_of = function Link.Null _ -> [] | Link.Ptr p -> [ p.target.blk ]

  type t = { head : node; pool : node Pool.t }

  (* Traversal cursor: [left] = last unmarked node whose loaded link is
     [left_next] (the snip CAS's expected value); [node] = a loaded link
     whose target is the node under examination (null = end of list; its
     tag is ignored).  [node] and [left_next] share their target iff no
     marked chain is pending between them.  A session keeps the live
     cursor and the walker's two checkpoint slots in records like this. *)
  type cursor = {
    mutable left : node;
    mutable left_next : node Link.t;
    mutable node : node Link.t;
  }

  type session = {
    h : S.handle;
    prot : S.shield array;  (* left, left_next-target, node *)
    backup : S.shield array;
    scratch : S.shield array;
    mutable rot : int;
    mask0 : S.shield;
    mask1 : S.shield;
    mutable key : int;  (* the running search's key ... *)
    mutable help : bool;  (* ... whether it snips marked chains ... *)
    mutable found : bool;  (* ... and its answer *)
    mutable ds : t;  (* the structure the running search walks *)
    mutable live : cursor;  (* the live cursor *)
    slots : cursor array;  (* checkpoint slots 0 and 1 *)
    w : S.shield walker;
  }

  let create () =
    {
      head =
        { blk = Alloc.block (); key = min_int; value = 0; next = Link.null_cell () };
      pool = Pool.create ();
    }

  let close_session s =
    S.flush s.h;
    S.unregister s.h

  let alloc_node t key value =
    let reuse =
      if not S.recycles then None
      else
        match Pool.acquire t.pool with
        | Some n when Block.retire_era n.blk <> S.current_era () ->
            Block.reanimate n.blk ~era:(S.current_era ());
            n.key <- key;
            n.value <- value;
            Link.set n.next Link.null;
            Some n
        | Some n ->
            Pool.release t.pool n;
            None
        | None -> None
    in
    match reuse with
    | Some n -> n
    | None ->
        let b = Alloc.block ~recyclable:S.recycles () in
        Block.set_birth_era b ~era:(S.current_era ());
        { blk = b; key; value; next = Link.null_cell () }

  (* A node that was allocated but never published: recyclers take it back
     into the pool; everyone else must tell the allocator it was abandoned,
     or the leak-at-quiescence oracle (DESIGN.md §11) would book it as
     stranded by a lost retirement. *)
  let discard t n =
    if S.recycles then Pool.release t.pool n else Alloc.abandon n.blk

  let scratch_read s ~src cell =
    let sh = s.scratch.(s.rot) in
    s.rot <- (s.rot + 1) mod Array.length s.scratch;
    S.read s.h sh ~src ~hdr:blk cell

  let key_of s (n : node) =
    let k = n.key in
    S.deref s.h n.blk;
    k

  let protect_cursor s (sh : S.shield array) =
    let c = s.live in
    S.protect sh.(0) c.left.blk;
    S.protect sh.(1) (link_blk c.left_next);
    S.protect sh.(2) (link_blk c.node)

  (* Revalidation (§3.3): resuming from [node] (or from [left] when at the
     end) requires it not logically deleted.  Checkpointed nodes are
     shield-protected, so the bare load is safe. *)
  let validate_cursor c =
    match c.node with
    | Link.Ptr { target = n; _ } ->
        Alloc.check_access n.blk;
        not (Link.is_marked (Link.get n.next))
    | Link.Null _ ->
        Alloc.check_access c.left.blk;
        not (Link.is_marked (Link.get c.left.next))

  let copy_cursor ~src ~dst =
    dst.left <- src.left;
    dst.left_next <- src.left_next;
    dst.node <- src.node

  (* Retire the frozen marked chain [from .. stop), patching successors for
     HP++.  Links of marked nodes are immutable, so the walk is stable. *)
  let retire_chain t s ~from ~stop =
    let rec go = function
      | Link.Null _ -> ()
      | Link.Ptr { target = x; _ } when Link.points_to stop x -> ()
      | Link.Ptr { target = x; _ } ->
          let nx = Link.get x.next in
          S.retire s.h x.blk ~patch:(patch_of nx)
            ?free:(Pool.free_hook ~recycles:S.recycles t.pool x);
          go nx
    in
    go from

  (* Snip the marked chain between left and [c.node]: one CAS on
     [left.next], then retire the chain.  Abort-rollback-unsafe, so masked
     on outliving protections. *)
  let snip t s c =
    S.protect s.mask0 c.left.blk;
    S.protect s.mask1 (link_blk c.node);
    let desired = Link.with_tag c.node 0 in
    S.mask s.h (fun () ->
        if Link.cas c.left.next ~expected:c.left_next ~desired then begin
          retire_chain t s ~from:c.left_next ~stop:c.node;
          Some desired
        end
        else None)

  let init_cursor t s =
    let ln = scratch_read s ~src:Block.none t.head.next in
    let cursor () = { left = t.head; left_next = ln; node = ln } in
    s.live <- cursor ();
    s.slots.(0) <- cursor ();
    s.slots.(1) <- cursor ()

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
    match snip s.ds s s.live with
    | Some ln ->
        s.live.left_next <- ln;
        s.found <- found;
        walk_done
    | None -> walk_fail

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
          let t_next = scratch_read s ~src:tnode.blk tnode.next in
          if Link.is_marked t_next then
            (* t is logically deleted: walk past it. *)
            walk s key (n - 1) left left_next t_next
          else
            let k = key_of s tnode in
            if k < key then
              (* t is a live node below the key: becomes the new left. *)
              walk s key (n - 1) tnode t_next t_next
            else if Link.points_to left_next tnode then
              (* t = right, adjacent to left. *)
              finish s left left_next node (k = key)
            else if s.help then finish_snip s left left_next node (k = key)
            else finish s left left_next node (k = key)
    end

  let session t =
    let h = S.register () in
    let shields n = Array.init n (fun _ -> S.new_shield h) in
    let prot = shields 3 in
    let backup = shields 3 in
    let scratch = shields 4 in
    let mask0 = S.new_shield h in
    let mask1 = S.new_shield h in
    let cursor () = { left = t.head; left_next = Link.null; node = Link.null } in
    let rec s =
      {
        h;
        prot;
        backup;
        scratch;
        rot = 0;
        mask0;
        mask1;
        key = 0;
        help = false;
        found = false;
        ds = t;
        live = cursor ();
        slots = [| cursor (); cursor () |];
        w =
          {
            init = (fun () -> init_cursor s.ds s);
            walk =
              (fun n ->
                let c = s.live in
                walk s s.key n c.left c.left_next c.node);
            save = (fun i -> copy_cursor ~src:s.live ~dst:s.slots.(i));
            restore =
              (fun i ->
                copy_cursor ~src:s.slots.(i) ~dst:s.live;
                validate_cursor s.live);
            protect = (fun sh -> protect_cursor s sh);
            steps = 0;
          };
      }
    in
    s

  (* Search for [key]; the cursor it stops at and its answer stay in the
     session.  Retried from the entry point when revalidation fails. *)
  let rec search t s key ~help =
    s.ds <- t;
    s.key <- key;
    s.help <- help;
    if not (S.traverse s.h ~prot:s.prot ~backup:s.backup s.w) then
      search t s key ~help

  (* ---------------- operations ---------------- *)

  let get t s key =
    S.op s.h (fun () ->
        search t s key ~help:F.helping_get;
        s.found)

  let insert t s key value =
    S.op s.h (fun () ->
        let n = alloc_node t key value in
        let rec go () =
          search t s key ~help:true;
          if s.found then begin
            discard t n;
            false
          end
          else begin
            (* After a helping search, left and right are adjacent:
               left_next's target is right (or null). *)
            let c = s.live in
            Link.set n.next (Link.with_tag c.left_next 0);
            let desired = Link.ptr n in
            if Link.cas c.left.next ~expected:c.left_next ~desired then true
            else go ()
          end
        in
        go ())

  let remove t s key =
    S.op s.h (fun () ->
        let rec go () =
          search t s key ~help:true;
          if not s.found then false
          else
            let left = s.live.left and left_next = s.live.left_next in
            let right = Link.target_exn left_next in
            let r_next = scratch_read s ~src:right.blk right.next in
            if Link.is_marked r_next then go ()
            else if
              Link.cas right.next ~expected:r_next
                ~desired:(Link.with_tag r_next 1)
            then begin
              (* Try to unlink immediately; otherwise later searches snip. *)
              S.protect s.mask0 left.blk;
              S.protect s.mask1 right.blk;
              let desired = Link.with_tag r_next 0 in
              S.mask s.h (fun () ->
                  if Link.cas left.next ~expected:left_next ~desired then
                    S.retire s.h right.blk ~patch:(patch_of r_next)
                      ?free:(Pool.free_hook ~recycles:S.recycles t.pool right));
              true
            end
            else go ()
        in
        go ())

  (* A single max_int search is not enough: [walk] advances [left]
     past a marked chain whenever the next live node's key is below the
     search key, so chains that precede a live node survive it — physically
     linked, invisible to the read-only [get], and never retired, which the
     leak-at-quiescence census (DESIGN.md §11) would book as stranded.
     Sweeping the live keys in order puts every marked chain between some
     search's left and right, where the snip CAS removes it. *)
  let cleanup t s =
    ignore
      (S.op s.h (fun () ->
           let rec sweep key =
             search t s key ~help:true;
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
