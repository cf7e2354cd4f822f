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
module Pool = Hpbrcu_alloc.Pool
module Link = Hpbrcu_core.Link
open Hpbrcu_core.Smr_intf

module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let name = "HMList(" ^ S.name ^ ")"

  type node = {
    blk : Block.t;
    mutable key : int;  (* mutable only for pool reuse (VBR) *)
    mutable value : int;
    next : node Link.cell;
  }

  let blk n = n.blk
  let link_blk = function Link.Null _ -> Block.none | Link.Ptr p -> p.target.blk

  (* HP++'s patch set of a retired node: its successor, if any. *)
  let patch_of = function Link.Null _ -> [] | Link.Ptr p -> [ p.target.blk ]

  type t = { head : node (* sentinel, key = min_int *); pool : node Pool.t }

  (* The traversal cursor: [prev] and the link loaded from [prev.next]
     (whose target is [cur]).  Keeping the loaded link (not just the
     target) gives CASes their physical-equality expected value.  A
     session keeps the live cursor and the walker's two checkpoint slots
     in records like this. *)
  type cursor = { mutable prev : node; mutable pnext : node Link.t }

  type session = {
    h : S.handle;
    prot : S.shield array;  (* protector: prev, cur *)
    backup : S.shield array;  (* double-buffer twin *)
    scratch : S.shield array;  (* rotating per-read shields (HP family) *)
    mutable rot : int;
    mask0 : S.shield;  (* outliving shields for masked regions (Alg. 8) *)
    mask1 : S.shield;
    mutable key : int;  (* the running search's key and answer *)
    mutable found : bool;
    mutable ds : t;  (* the structure the running search walks *)
    mutable live : cursor;
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

  (* ---------------- allocation (pool-aware for VBR) ---------------- *)

  let alloc_node t key value =
    let reuse =
      if not S.recycles then None
      else
        match Pool.acquire t.pool with
        | Some n when Block.retire_era n.blk <> S.current_era () ->
            (* Cross-era reuse only: see Vbr's module comment. *)
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

  (* ---------------- mediated accesses ---------------- *)

  let scratch_read s ~src cell =
    let sh = s.scratch.(s.rot) in
    s.rot <- (s.rot + 1) mod Array.length s.scratch;
    S.read s.h sh ~src ~hdr:blk cell

  (* Read a node's key, then validate the access (order matters for VBR:
     the value is junk if the node was recycled meanwhile, and the
     validation detects exactly that). *)
  let key_of s (n : node) =
    let k = n.key in
    S.deref s.h n.blk;
    k

  (* ---------------- Traverse plumbing (Algorithm 8) ---------------- *)

  (* ListCursorProtector.protect: publish both cursor nodes. *)
  let protect_cursor s (sh : S.shield array) =
    let c = s.live in
    S.protect sh.(0) c.prev.blk;
    S.protect sh.(1) (link_blk c.pnext)

  (* ListCursor.validate: the node the resumed traversal will dereference
     must not be logically deleted (checking the mark suffices for
     revalidation, §3.3).  Cursor nodes are checkpoint-protected, hence
     unreclaimed, so bare loads are safe here. *)
  let validate_cursor c =
    match c.pnext with
    | Link.Null _ ->
        Alloc.check_access c.prev.blk;
        not (Link.is_marked (Link.get c.prev.next))
    | Link.Ptr { target = cur; _ } ->
        Alloc.check_access cur.blk;
        not (Link.is_marked (Link.get cur.next))

  let copy_cursor ~src ~dst =
    dst.prev <- src.prev;
    dst.pnext <- src.pnext

  let init_cursor t s =
    let pnext = scratch_read s ~src:Block.none t.head.next in
    let cursor () = { prev = t.head; pnext } in
    s.live <- cursor ();
    s.slots.(0) <- cursor ();
    s.slots.(1) <- cursor ()

  (* The walk stops: write the cursor back to the session. *)
  let stop s prev pnext r =
    s.live.prev <- prev;
    s.live.pnext <- pnext;
    r

  let finish s prev pnext found =
    s.found <- found;
    stop s prev pnext walk_done

  (* [cur] is logically deleted: help unlink it from [prev] and retire it.
     The unlink + retire pair is abort-rollback-unsafe, so it runs masked
     on outliving protections (Algorithm 8 lines 23-27). *)
  let help_unlink s prev pnext cur next desired =
    let pool = s.ds.pool in
    S.protect s.mask0 prev.blk;
    S.protect s.mask1 cur.blk;
    S.mask s.h (fun () ->
        if Link.cas prev.next ~expected:pnext ~desired then begin
          S.retire s.h cur.blk ~patch:(patch_of next)
            ?free:(Pool.free_hook ~recycles:S.recycles pool cur);
          true
        end
        else false)

  (* Algorithm 8's step closure, at most [n] steps of it, with the cursor
     in the arguments. *)
  let rec walk s key n prev pnext =
    if n = 0 then stop s prev pnext walk_more
    else begin
      s.w.steps <- s.w.steps + 1;
      match pnext with
      | Link.Null _ -> finish s prev pnext false (* reached the end: key absent *)
      | Link.Ptr { target = cur; _ } ->
          let next = scratch_read s ~src:cur.blk cur.next in
          if Link.is_marked next then begin
            let desired = Link.with_tag next 0 in
            if help_unlink s prev pnext cur next desired then
              walk s key (n - 1) prev desired
            else walk_fail
          end
          else
            let k = key_of s cur in
            if k >= key then finish s prev pnext (k = key)
            else walk s key (n - 1) cur next
    end

  let session t =
    let h = S.register () in
    let shields n = Array.init n (fun _ -> S.new_shield h) in
    let prot = shields 2 in
    let backup = shields 2 in
    let scratch = shields 3 in
    let mask0 = S.new_shield h in
    let mask1 = S.new_shield h in
    let cursor () = { prev = t.head; pnext = Link.null } in
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
            steps = 0;
          };
      }
    in
    s

  (* TrySearch: traverse until the position of [key]; retry the whole
     operation if revalidation failed (rare).  On success the cursor and
     the answer stay in the session, the cursor protected by one of its
     shield arrays. *)
  let rec search t s key =
    s.ds <- t;
    s.key <- key;
    if not (S.traverse s.h ~prot:s.prot ~backup:s.backup s.w) then
      search t s key

  (* ---------------- operations ---------------- *)

  let get t s key =
    S.op s.h (fun () ->
        search t s key;
        s.found)

  let insert t s key value =
    S.op s.h (fun () ->
        let n = alloc_node t key value in
        let rec go () =
          search t s key;
          if s.found then begin
            discard t n;
            false
          end
          else begin
            let c = s.live in
            Link.set n.next (Link.with_tag c.pnext 0);
            let desired = Link.ptr n in
            if Link.cas c.prev.next ~expected:c.pnext ~desired then true
            else go ()
          end
        in
        go ())

  let remove t s key =
    S.op s.h (fun () ->
        let rec go () =
          search t s key;
          if not s.found then false
          else
            let prev = s.live.prev and pnext = s.live.pnext in
            let cur = Link.target_exn pnext in
            let next = scratch_read s ~src:cur.blk cur.next in
            if Link.is_marked next then go ()  (* lost the race *)
            else if
              (* Logical deletion: mark cur's next link. *)
              Link.cas cur.next ~expected:next ~desired:(Link.with_tag next 1)
            then begin
              (* Physical deletion; on failure a helping traversal will
                 finish the job (and retire the node). *)
              let desired = Link.with_tag next 0 in
              if Link.cas prev.next ~expected:pnext ~desired then
                S.retire s.h cur.blk ~patch:(patch_of next)
                  ?free:(Pool.free_hook ~recycles:S.recycles t.pool cur)
              else search t s key;
              true
            end
            else go ()
        in
        go ())

  (* Walk the whole list once, helping every pending unlink. *)
  let cleanup t s = ignore (get t s max_int : bool)
end
