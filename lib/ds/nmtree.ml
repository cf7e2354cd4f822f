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

(* A node is its own block (DESIGN.md §9, "objects per hop"): [Block.t]'s
   fields follow field 0 (the header-prefix rule), read and CAS'd only
   through {!blk}. *)
type node = {
  left : node Link.cell;
  mutable word : int;
  id : int;
  recyclable : bool;
  mutable birth_era : int;
  mutable retire_era : int;
  mutable poison : int;
  mutable owner : int;
  mutable key : int;
  mutable value : int;
  leaf : bool;
  right : node Link.cell;
}

external blk : node -> Block.t = "%identity"

(* Every leaf's [left] and [right]: one cell, holding the shared null for
   good.  No operation reads or writes a leaf's children: [walk] reads a
   child only of a node that is not a leaf; [validate_cursor] returns
   before it reads [par]'s children when [cur] is a leaf, and [par] is
   never one; [retire_region] reads no child of a leaf; every CAS
   ([insert]'s and [remove]'s on [par], [cleanup_edge]'s on [par]'s and
   [anc]'s) lands on an internal node; and a node reused from VBR's pool
   is a leaf, since the only release into it is [insert]'s discard of a
   leaf it never published ([alloc_leaf] asserts it). *)
let leaf_child : node Link.cell = Link.cell Link.null

(** A fresh node, [Live] and born at [era]. *)
let mk_node ~recyclable ~era key value ~leaf ~left ~right =
  {
    left;
    word = Block.live; id = Alloc.fresh_id (); recyclable;
    birth_era = era; retire_era = -1; poison = 0; owner = 0;
    key;
    value;
    leaf;
    right;
  }

(** A fresh leaf, and a fresh internal node routing on [key]. *)
let mk_leaf ~recyclable ~era key value =
  mk_node ~recyclable ~era key value ~leaf:true ~left:leaf_child
    ~right:leaf_child

let mk_internal ~recyclable ~era key ~left ~right =
  mk_node ~recyclable ~era key 0 ~leaf:false ~left:(Link.cell (Link.ptr left))
    ~right:(Link.cell (Link.ptr right))

module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let caps = caps (module S)
  let name = "NMTree(" ^ caps.Hpbrcu_core.Caps.name ^ ")"

  let link_blk = function Link.Null _ -> Block.none | Link.Ptr p -> blk p.target

  (* Sentinel keys: every real key must be < inf0. *)
  let inf0 = max_int - 2
  let inf1 = max_int - 1
  let inf2 = max_int

  type t = { root : node; pool : node Pool.t (* unpublished leaves *) }

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
    prot : S.shield array;  (* anc, successor, par, cur, plink's target *)
    backup : S.shield array;
    lasting : S.shield array;
        (* ancestor and parent across hops, under {!hop_shields} only;
           empty otherwise *)
    mutable key : int;  (* the running seek's key and answer *)
    mutable found : bool;
    mutable ds : t;  (* the structure the running search walks *)
    mutable live : cursor;
    slots : cursor array;  (* checkpoint slots 0 and 1 *)
    w : S.shield walker;
  }

  let create () =
    (* R(inf2) -- left --> S(inf1) -- left --> leaf(inf0);
       right children are sentinel leaves. *)
    let sentinel = mk_internal ~recyclable:false ~era:0 in
    let l_inf0 = mk_leaf ~recyclable:false ~era:0 inf0 0 in
    let l_inf1 = mk_leaf ~recyclable:false ~era:0 inf1 0 in
    let l_inf2 = mk_leaf ~recyclable:false ~era:0 inf2 0 in
    let s = sentinel inf1 ~left:l_inf0 ~right:l_inf1 in
    let r = sentinel inf2 ~left:s ~right:l_inf2 in
    { root = r; pool = Pool.create () }

  let close_session s =
    S.flush s.h;
    S.unregister s.h

  (* The pool holds only leaves [insert] discarded unpublished:
     [retire_region] returns no retired node to it. *)
  let alloc_leaf t key value =
    let era = S.current_era S.it in
    match Pool.reuse ~recycles:S.recycles t.pool ~blk ~era with
    | Some n ->
        assert n.leaf;
        n.key <- key;
        n.value <- value;
        n
    | None -> mk_leaf ~recyclable:S.recycles ~era key value

  let alloc_internal key ~left ~right =
    mk_internal ~recyclable:S.recycles ~era:(S.current_era S.it) key ~left
      ~right

  (* Under a [NoOverhead] scheme a hop stores no shield: [traverse]
     publishes the whole cursor with [protect_cursor] inside the section.
     Otherwise [read]'s ring holds the hops, and [lasting] the ancestor
     and parent a seek may keep longer than the ring does. *)
  let hop_shields = Hpbrcu_core.Caps.hop_shields caps

  let key_of s (n : node) =
    let k = n.key in
    S.deref s.h (blk n);
    k

  let child_cell (n : node) key = if key < n.key then n.left else n.right

  (* ---------------- seek (step-decomposed) ---------------- *)

  let protect_cursor s (sh : S.shield array) =
    let c = s.live in
    S.protect sh.(0) (blk c.anc);
    S.protect sh.(1) (link_blk c.alink);
    S.protect sh.(2) (blk c.par);
    S.protect sh.(3) (blk c.cur);
    S.protect sh.(4) (link_blk c.plink)

  (* Revalidation (§3.3): resuming descends from [cur]; conservative and
     cheap: the parent must still hold a clean edge to cur.  (A leaf cursor
     revalidates trivially: the result was derived while the leaf was
     reachable, which is a valid linearization point within the op.) *)
  let validate_cursor c =
    if c.cur.leaf then true
    else begin
      Alloc.check_access (blk c.par);
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
    let alink = S.read s.h ~src:Block.none ~hdr:blk t.root.left in
    let su = Link.target_exn alink in
    let plink = S.read s.h ~src:(blk su) ~hdr:blk su.left in
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
        let next = S.read s.h ~src:(blk cur) ~hdr:blk (child_cell cur key) in
        match next with
        | Link.Null _ -> walk_fail (* torn read of a recycled node (VBR): retry *)
        | Link.Ptr { target = nx; _ } ->
            (* Advance ancestor when the edge we just crossed was untagged. *)
            let untagged = Link.tag plink land tag_bit = 0 in
            let anc = if untagged then par else anc in
            let alink = if untagged then plink else alink in
            if hop_shields then begin
              S.protect s.lasting.(0) (blk anc);
              S.protect s.lasting.(1) (blk cur)
            end;
            walk s key (n - 1) anc alink cur next nx
      end
    end

  let session t =
    let h = S.register S.it in
    let shields n = Array.init n (fun _ -> S.new_shield h) in
    let prot = shields 5 in
    let backup = shields 5 in
    let lasting = shields (if hop_shields then 2 else 0) in
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
        lasting;
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
            resumable = true;
            steps = 0;
          };
      }
    in
    s

  (* Seek [key]; the seek record and the answer stay in the session, the
     record protected when [hold]. *)
  let rec seek t s key ~hold =
    s.ds <- t;
    s.key <- key;
    if not (S.traverse s.h ~hold ~prot:s.prot ~backup:s.backup s.w) then
      seek t s key ~hold

  (* ---------------- retirement of a pruned region ---------------- *)

  (* After a successful prune CAS the whole old-successor subtree except
     the preserved sibling subtree is unreachable.  Several pruners may
     race on nested regions, so each node is claimed: only the claimer
     descends (and it reads the children *before* handing the block to the
     scheme, which may reclaim instantly under VBR).  Every edge in the
     region is flagged or tagged, so the links are immutable. *)
  let retire_region s ~from ~keep =
    let rec go n =
      if n != keep && Alloc.try_retire (blk n) then begin
        let l = if n.leaf then Link.null else Link.get n.left in
        let r = if n.leaf then Link.null else Link.get n.right in
        S.retire s.h (blk n) ~claimed:true;
        go_link l;
        go_link r
      end
    and go_link = function Link.Null _ -> () | Link.Ptr p -> go p.target in
    go from

  (* ---------------- operations ---------------- *)

  let get t s key =
    S.op s.h (fun () ->
        seek t s key ~hold:false;
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
          seek t s key ~hold:true;
          let c = s.live and found = s.found in
          if found then begin
            Pool.discard ~recycles:S.recycles t.pool ~blk leaf;
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
              Alloc.abandon (blk internal);
              attempt ()
            end
          end
        in
        attempt ())

  let remove t s key =
    S.op s.h (fun () ->
        let rec injection () =
          seek t s key ~hold:true;
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
                  seek t s key ~hold:true;
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
