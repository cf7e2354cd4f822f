(** Natarajan-Mittal lock-free external BST (PPoPP 2014) — the paper's
    NMTree.

    An external tree: internal nodes route, leaves store keys.  Deletion is
    edge-based: the deleter {e flags} the edge parent→leaf (tag bit 0) and
    then, in cleanup, {e tags} the sibling edge (tag bit 1) and prunes by
    swinging the deepest untagged ancestor edge to the sibling subtree in
    one CAS.  Helping operates on edges, not nodes, so traversals do not
    write — but deletions of nearby keys contend, and several threads can
    race to prune overlapping regions; retirement of a pruned region
    therefore goes through {!Hpbrcu_alloc.Alloc.try_retire} claims.

    HP cannot run NMTree (Table 1): a traversal may pass through internal
    nodes whose incoming edge was already pruned (optimistic traversal). *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Pool = Hpbrcu_alloc.Pool
module Link = Hpbrcu_core.Link
open Hpbrcu_core.Smr_intf

(* Edge bits carried in Link tags. *)
let flag_bit = 1 (* the leaf below is being deleted *)
let tag_bit = 2 (* the edge must not accept insertions (sibling move) *)

module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let name = "NMTree(" ^ S.name ^ ")"

  type node = {
    blk : Block.t;
    mutable key : int;
    mutable value : int;
    leaf : bool;
    left : node Link.cell;
    right : node Link.cell;
  }

  let blk n = n.blk
  let link_blk = function Link.Null _ -> Block.none | Link.Ptr p -> p.target.blk

  (* Sentinel keys: every real key must be < inf0. *)
  let inf0 = max_int - 2
  let inf1 = max_int - 1
  let inf2 = max_int

  type t = { root : node; pool : node Pool.t (* leaves and internals *) }

  (* Seek record (the NM paper's seekRecord): ancestor = deepest node whose
     edge toward the key is untagged; successor = that edge's target;
     parent = leaf's parent; cur = current node (leaf at the destination).
     A session keeps the live cursor and the walker's two checkpoint slots
     in records like this. *)
  type cursor = {
    mutable anc : node;
    mutable alink : node Link.t;  (* loaded ancestor child link (untagged) *)
    mutable par : node;
    mutable plink : node Link.t;  (* loaded parent child link toward cur *)
    mutable cur : node;
  }

  type session = {
    h : S.handle;
    prot : S.shield array;  (* anc, successor, par, cur *)
    backup : S.shield array;
    scratch : S.shield array;
    mutable rot : int;
    anc_sh : S.shield;  (* lasting protection of ancestor and parent *)
    par_sh : S.shield;
    mutable key : int;  (* the running seek's key and answer *)
    mutable found : bool;
    mutable ds : t;  (* the structure the running search walks *)
    mutable live : cursor;
    slots : cursor array;  (* checkpoint slots 0 and 1 *)
    w : S.shield walker;
  }

  let mk_leaf ?(recyclable = false) key value =
    let b = Alloc.block ~recyclable () in
    {
      blk = b;
      key;
      value;
      leaf = true;
      left = Link.null_cell ();
      right = Link.null_cell ();
    }

  let create () =
    (* R(inf2) -- left --> S(inf1) -- left --> leaf(inf0);
       right children are sentinel leaves. *)
    let l_inf0 = mk_leaf inf0 0 in
    let l_inf1 = mk_leaf inf1 0 in
    let l_inf2 = mk_leaf inf2 0 in
    let s =
      {
        blk = Alloc.block ();
        key = inf1;
        value = 0;
        leaf = false;
        left = Link.cell (Link.ptr l_inf0);
        right = Link.cell (Link.ptr l_inf1);
      }
    in
    let r =
      {
        blk = Alloc.block ();
        key = inf2;
        value = 0;
        leaf = false;
        left = Link.cell (Link.ptr s);
        right = Link.cell (Link.ptr l_inf2);
      }
    in
    { root = r; pool = Pool.create () }

  let close_session s =
    S.flush s.h;
    S.unregister s.h

  let alloc_leaf t key value =
    let reuse =
      if not S.recycles then None
      else
        match Pool.acquire t.pool with
        | Some n
          when n.leaf && Block.retire_era n.blk <> S.current_era () ->
            Block.reanimate n.blk ~era:(S.current_era ());
            n.key <- key;
            n.value <- value;
            Some n
        | Some n ->
            Pool.release t.pool n;
            None
        | None -> None
    in
    match reuse with
    | Some n -> n
    | None ->
        let n = mk_leaf ~recyclable:S.recycles key value in
        Block.set_birth_era n.blk ~era:(S.current_era ());
        n

  let alloc_internal key ~left ~right =
    let b = Alloc.block ~recyclable:S.recycles () in
    Block.set_birth_era b ~era:(S.current_era ());
    {
      blk = b;
      key;
      value = 0;
      leaf = false;
      left = Link.cell (Link.ptr left);
      right = Link.cell (Link.ptr right);
    }

  let scratch_read s ~src cell =
    let sh = s.scratch.(s.rot) in
    s.rot <- (s.rot + 1) mod Array.length s.scratch;
    S.read s.h sh ~src ~hdr:blk cell

  let key_of s (n : node) =
    let k = n.key in
    S.deref s.h n.blk;
    k

  let child_cell (n : node) key = if key < n.key then n.left else n.right

  (* ---------------- seek (step-decomposed) ---------------- *)

  let protect_cursor s (sh : S.shield array) =
    let c = s.live in
    S.protect sh.(0) c.anc.blk;
    S.protect sh.(1) (link_blk c.alink);
    S.protect sh.(2) c.par.blk;
    S.protect sh.(3) c.cur.blk;
    S.protect sh.(4) (link_blk c.plink)

  (* Revalidation (§3.3): resuming descends from [cur]; conservative and
     cheap: the parent must still hold a clean edge to cur.  (A leaf cursor
     revalidates trivially: the result was derived while the leaf was
     reachable, which is a valid linearization point within the op.) *)
  let validate_cursor c =
    if c.cur.leaf then true
    else begin
      Alloc.check_access c.par.blk;
      let ok cell =
        let lk = Link.get cell in
        Link.points_to lk c.cur && Link.tag lk = 0
      in
      ok c.par.left || ok c.par.right
    end

  let copy_cursor ~src ~dst =
    dst.anc <- src.anc;
    dst.alink <- src.alink;
    dst.par <- src.par;
    dst.plink <- src.plink;
    dst.cur <- src.cur

  let init_cursor t s =
    let alink = scratch_read s ~src:Block.none t.root.left in
    let su = Link.target_exn alink in
    let plink = scratch_read s ~src:su.blk su.left in
    let cur = Link.target_exn plink in
    let cursor () = { anc = t.root; alink; par = su; plink; cur } in
    s.live <- cursor ();
    s.slots.(0) <- cursor ();
    s.slots.(1) <- cursor ()

  (* The walk stops: write the cursor back to the session. *)
  let stop s anc alink par plink cur r =
    let c = s.live in
    c.anc <- anc;
    c.alink <- alink;
    c.par <- par;
    c.plink <- plink;
    c.cur <- cur;
    r

  (* The seek, at most [n] steps of it, with the cursor in the arguments. *)
  let rec walk s key n anc alink par plink cur =
    if n = 0 then stop s anc alink par plink cur walk_more
    else begin
      s.w.steps <- s.w.steps + 1;
      if cur.leaf then begin
        s.found <- key_of s cur = key;
        stop s anc alink par plink cur walk_done
      end
      else begin
        let next = scratch_read s ~src:cur.blk (child_cell cur key) in
        match next with
        | Link.Null _ -> walk_fail (* torn read of a recycled node (VBR): retry *)
        | Link.Ptr { target = nx; _ } ->
            (* Advance ancestor when the edge we just crossed was untagged. *)
            let untagged = Link.tag plink land tag_bit = 0 in
            let anc = if untagged then par else anc in
            let alink = if untagged then plink else alink in
            S.protect s.anc_sh anc.blk;
            S.protect s.par_sh cur.blk;
            walk s key (n - 1) anc alink cur next nx
      end
    end

  let session t =
    let h = S.register () in
    let shields n = Array.init n (fun _ -> S.new_shield h) in
    let prot = shields 5 in
    let backup = shields 5 in
    let scratch = shields 5 in
    let anc_sh = S.new_shield h in
    let par_sh = S.new_shield h in
    let cursor () =
      {
        anc = t.root;
        alink = Link.null;
        par = t.root;
        plink = Link.null;
        cur = t.root;
      }
    in
    let rec s =
      {
        h;
        prot;
        backup;
        scratch;
        rot = 0;
        anc_sh;
        par_sh;
        key = 0;
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
                walk s s.key n c.anc c.alink c.par c.plink c.cur);
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

  (* Seek [key]; the seek record and the answer stay in the session. *)
  let rec seek t s key =
    s.ds <- t;
    s.key <- key;
    if not (S.traverse s.h ~prot:s.prot ~backup:s.backup s.w) then
      seek t s key

  (* ---------------- retirement of a pruned region ---------------- *)

  (* After a successful prune CAS the whole old-successor subtree except
     the preserved sibling subtree is unreachable.  Several pruners may
     race on nested regions, so each node is claimed: only the claimer
     descends (and it reads the children *before* handing the block to the
     scheme, which may reclaim instantly under VBR).  Every edge in the
     region is flagged or tagged, so the links are immutable. *)
  let retire_region s ~from ~keep =
    let rec go n =
      if n != keep && Alloc.try_retire n.blk then begin
        let l = if n.leaf then Link.null else Link.get n.left in
        let r = if n.leaf then Link.null else Link.get n.right in
        S.retire s.h n.blk ~claimed:true;
        go_link l;
        go_link r
      end
    and go_link = function Link.Null _ -> () | Link.Ptr p -> go p.target in
    go from

  (* ---------------- operations ---------------- *)

  let get t s key =
    S.op s.h (fun () ->
        seek t s key;
        s.found)

  (* Cleanup (NM): tag the sibling edge, then swing the ancestor edge to
     the sibling subtree (preserving its flag, clearing its tag).  Returns
     true iff the prune CAS succeeded. *)
  let cleanup_edge t s key (c : cursor) =
    ignore t;
    let parent = c.par in
    let child_c, sibling_c =
      if key < parent.key then (parent.left, parent.right)
      else (parent.right, parent.left)
    in
    (* If the child edge is not flagged, the deletion being helped flagged
       the other side: preserve the child side instead. *)
    let child_lk = Link.get child_c in
    let sibling_c =
      if Link.tag child_lk land flag_bit <> 0 then sibling_c else child_c
    in
    (* Tag the sibling edge so no insertion lands under it. *)
    let rec tag_edge () =
      let lk = Link.get sibling_c in
      if Link.tag lk land tag_bit = 0 then
        if
          not
            (Link.cas sibling_c ~expected:lk
               ~desired:(Link.with_tag lk (Link.tag lk lor tag_bit)))
        then tag_edge ()
    in
    tag_edge ();
    let slink = Link.get sibling_c in
    match slink with
    | Link.Null _ -> false
    | Link.Ptr { target = keep; tag } ->
        S.mask s.h (fun () ->
            let desired = Link.Ptr { target = keep; tag = tag land flag_bit } in
            if Link.cas (child_cell c.anc key) ~expected:c.alink ~desired then begin
              (match c.alink with
              | Link.Ptr { target = old_successor; _ } ->
                  retire_region s ~from:old_successor ~keep
              | Link.Null _ -> ());
              true
            end
            else false)

  let insert t s key value =
    S.op s.h (fun () ->
        let leaf = alloc_leaf t key value in
        let rec attempt () =
          seek t s key;
          let c = s.live and found = s.found in
          if found then begin
            (* Unpublished leaf: pool it, or book it as abandoned so the
               leak-at-quiescence accounting stays exact (DESIGN.md §11). *)
            if S.recycles then Pool.release t.pool leaf
            else Alloc.abandon leaf.blk;
            false
          end
          else if Link.tag c.plink <> 0 then begin
            (* The edge is flagged/tagged: help the pending delete. *)
            ignore (cleanup_edge t s key c : bool);
            attempt ()
          end
          else begin
            let sib = c.cur in
            let skey = sib.key in
            let internal =
              if key < skey then alloc_internal skey ~left:leaf ~right:sib
              else alloc_internal key ~left:sib ~right:leaf
            in
            let cell = child_cell c.par key in
            if Link.cas cell ~expected:c.plink ~desired:(Link.ptr internal)
            then true
            else begin
              (* Lost the race; the internal wrapper is unpublished (the
                 GC collects it — it was never shared), but its lifecycle
                 header must still be written off as abandoned. *)
              Alloc.abandon internal.blk;
              attempt ()
            end
          end
        in
        attempt ())

  let remove t s key =
    S.op s.h (fun () ->
        let rec injection () =
          seek t s key;
          let c = s.live and found = s.found in
          if not found then false
          else begin
            let cell = child_cell c.par key in
            if Link.tag c.plink <> 0 then begin
              (* Edge already flagged/tagged: help, then retry. *)
              ignore (cleanup_edge t s key c : bool);
              injection ()
            end
            else if
              Link.cas cell ~expected:c.plink
                ~desired:(Link.with_tag c.plink flag_bit)
            then begin
              (* Injection succeeded: we own the deletion of this leaf.
                 Prune until it is gone (by us or a helper). *)
              let victim = c.cur in
              let rec until_gone c =
                if not (cleanup_edge t s key c) then begin
                  seek t s key;
                  let c' = s.live and found = s.found in
                  if found && c'.cur == victim then until_gone c'
                end
              in
              until_gone { c with plink = Link.with_tag c.plink flag_bit };
              true
            end
            else injection ()
          end
        in
        injection ())

  let cleanup t s = ignore (get t s (inf0 - 1) : bool)
end
