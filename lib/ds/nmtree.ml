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
   is a leaf, since only leaves are released into it: [insert]'s discard
   of a leaf it never published and [retire_region]'s recycling of a
   retired one ([alloc_leaf] asserts it). *)
let leaf_child : node Link.cell = Link.cell Link.null

(* The leaf an insert holds until its seek has missed: a node of no
   tree, never published. *)
let no_leaf =
  {
    left = leaf_child;
    word = Block.live; id = -1; recyclable = false;
    birth_era = 0; retire_era = -1; poison = 0; owner = 0;
    key = 0;
    value = 0;
    leaf = true;
    right = leaf_child;
  }

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
     parent = leaf's parent; cur = current node (leaf at the
     destination). *)
  type cursor = {
    mutable anc : node;
    mutable alink : node Link.t;  (* loaded ancestor child link (untagged) *)
    mutable par : node;
    mutable plink : node Link.t;  (* loaded parent child link toward cur *)
    mutable cur : node;
  }

  module Sk =
    Session.Make
      (S)
      (struct
        type shield = S.shield
        type t = cursor

        let clone c =
          { anc = c.anc; alink = c.alink; par = c.par; plink = c.plink; cur = c.cur }

        let copy ~src ~dst =
          dst.anc <- src.anc;
          dst.alink <- src.alink;
          dst.par <- src.par;
          dst.plink <- src.plink;
          dst.cur <- src.cur

        (* Revalidation (§3.3): resuming descends from [cur]; conservative
           and cheap: the parent must still hold a clean edge to cur.  (A
           leaf cursor revalidates trivially: the result was derived while
           the leaf was reachable, which is a valid linearization point
           within the op.) *)
        let validate c =
          if c.cur.leaf then true
          else begin
            Alloc.check_access (blk c.par);
            let ok cell =
              let lk = Link.get cell in
              Link.points_to lk c.cur && Link.tag lk = 0
            in
            ok c.par.left || ok c.par.right
          end

        (* anc, successor, par, cur, plink's target *)
        let protect (sh : S.shield array) c =
          S.protect sh.(0) (blk c.anc);
          S.protect sh.(1) (link_blk c.alink);
          S.protect sh.(2) (blk c.par);
          S.protect sh.(3) (blk c.cur);
          S.protect sh.(4) (link_blk c.plink)
      end)

  (* A session's own fields: [lasting] holds the ancestor and parent
     across hops, under {!hop_shields} only (empty otherwise);
     [prune_body] swings the live cursor's ancestor edge to [prune_to]. *)
  type ext = {
    lasting : S.shield array;
    mutable prune_to : node Link.t;
    mutable prune_body : unit -> bool;
  }

  type session = (t, ext) Sk.session

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

  (* The pool holds leaves only: internal nodes are never pooled. *)
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
     publishes the whole cursor with its [protect] inside the section.
     Otherwise [read]'s ring holds the hops, and [lasting] the ancestor
     and parent a seek may keep longer than the ring does. *)
  let hop_shields = Hpbrcu_core.Caps.hop_shields caps

  let key_of (s : session) (n : node) =
    let k = n.key in
    S.deref s.h (blk n);
    k

  let child_cell (n : node) key = if key < n.key then n.left else n.right

  (* ---------------- seek (step-decomposed) ---------------- *)

  let init (s : session) =
    let root = s.ds.root in
    let alink = S.read s.h ~src:Block.none ~hdr:blk root.left in
    let su = Link.target_exn alink in
    let plink = S.read s.h ~src:(blk su) ~hdr:blk su.left in
    let cur = Link.target_exn plink in
    { anc = root; alink; par = su; plink; cur }

  (* The walk stops: write the cursor back to the session. *)
  let stop (s : session) anc alink par plink cur r =
    let c = s.live in
    c.anc <- anc;
    c.alink <- alink;
    c.par <- par;
    c.plink <- plink;
    c.cur <- cur;
    r

  (* The seek, at most [n] steps of it, with the cursor in the arguments. *)
  let rec walk_from (s : session) key n anc alink par plink cur =
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
              S.protect s.x.lasting.(0) (blk anc);
              S.protect s.x.lasting.(1) (blk cur)
            end;
            walk_from s key (n - 1) anc alink cur next nx
      end
    end

  let walk (s : session) n =
    let c = s.live in
    walk_from s s.key n c.anc c.alink c.par c.plink c.cur

  (* ---------------- retirement of a pruned region ---------------- *)

  (* After a successful prune CAS the whole old-successor subtree except
     the preserved sibling subtree [keep] is unreachable.  Several pruners
     may race on nested regions, so each node is claimed: only the
     claimer descends (and it reads the children *before* handing the
     block to the scheme, which may reclaim instantly under VBR, and
     then gives a leaf back to the pool).  Every edge in the region is
     flagged or tagged, so the links are immutable. *)
  let rec retire_region (s : session) keep n =
    if n != keep && Alloc.try_retire (blk n) then begin
      let l = if n.leaf then Link.null else Link.get n.left in
      let r = if n.leaf then Link.null else Link.get n.right in
      S.retire s.h (blk n) ~claimed:true;
      if n.leaf then Pool.recycle ~recycles:S.recycles s.ds.pool n;
      retire_link s keep l;
      retire_link s keep r
    end

  and retire_link s keep = function
    | Link.Null _ -> ()
    | Link.Ptr p -> retire_region s keep p.target

  (* ---------------- operations ---------------- *)

  (* Tag [cell] so no insertion lands under it. *)
  let rec tag_edge cell =
    let lk = Link.get cell in
    if Link.tag lk land tag_bit = 0 then
      if
        not
          (Link.cas cell ~expected:lk
             ~desired:(Link.with_tag lk (Link.tag lk lor tag_bit)))
      then tag_edge cell

  (* [prune_body]: swing the live cursor's ancestor edge toward [s.key]
     from [alink] to [prune_to], and retire the old successor's region
     if that won. *)
  let prune (s : session) =
    let c = s.live in
    let prune_to = s.x.prune_to in
    Link.cas (child_cell c.anc s.key) ~expected:c.alink ~desired:prune_to
    && begin
         (match (c.alink, prune_to) with
         | Link.Ptr { target = old_successor; _ }, Link.Ptr { target = keep; _ }
           ->
             retire_region s keep old_successor
         | _ -> ());
         true
       end

  (* Cleanup (NM) of the live seek record: tag the sibling edge, then
     swing the ancestor edge to the sibling subtree (preserving its flag,
     clearing its tag).  Returns true iff the prune CAS succeeded. *)
  let cleanup_edge (s : session) =
    let parent = s.live.par in
    let toward_left = s.key < parent.key in
    (* If the child edge is not flagged, the deletion being helped flagged
       the other side: preserve the child side instead. *)
    let child_c = if toward_left then parent.left else parent.right in
    let sibling_c =
      if Link.tag (Link.get child_c) land flag_bit = 0 then child_c
      else if toward_left then parent.right
      else parent.left
    in
    tag_edge sibling_c;
    match Link.get sibling_c with
    | Link.Null _ -> false
    | Link.Ptr { target = keep; tag } ->
        s.x.prune_to <- Link.Ptr { target = keep; tag = tag land flag_bit };
        S.mask s.h s.x.prune_body

  (* Seek, and link a leaf in if the key is absent.  [leaf] is {!no_leaf}
     until a seek has missed: the leaf is built only then, and an
     attempt that loses its CAS retries with it. *)
  let rec insert_op (s : session) leaf =
    if Sk.search s then begin
      if leaf != no_leaf then
        Pool.discard ~recycles:S.recycles s.ds.pool ~blk leaf;
      false
    end
    else
      let c = s.live in
      if Link.tag c.plink <> 0 then begin
        (* The edge is flagged/tagged: help the pending delete. *)
        ignore (cleanup_edge s : bool);
        insert_op s leaf
      end
      else begin
        let key = s.key in
        let leaf =
          if leaf == no_leaf then alloc_leaf s.ds key s.value else leaf
        in
        let sib = c.cur in
        let skey = sib.key in
        let internal =
          if key < skey then alloc_internal skey ~left:leaf ~right:sib
          else alloc_internal key ~left:sib ~right:leaf
        in
        Link.cas (child_cell c.par key) ~expected:c.plink
          ~desired:(Link.ptr internal)
        || begin
             (* Lost the race; the internal wrapper is unpublished (the GC
                collects it — it was never shared), but its lifecycle
                header must still be written off as abandoned. *)
             Alloc.abandon (blk internal);
             insert_op s leaf
           end
      end

  let rec remove_op (s : session) =
    Sk.search s
    &&
    let c = s.live in
    if Link.tag c.plink <> 0 then begin
      (* Edge already flagged/tagged: help, then retry. *)
      ignore (cleanup_edge s : bool);
      remove_op s
    end
    else if
      Link.cas (child_cell c.par s.key) ~expected:c.plink
        ~desired:(Link.with_tag c.plink flag_bit)
    then begin
      (* Injection succeeded: we own the deletion of this leaf.  Prune
         until it is gone (by us or a helper). *)
      until_gone s c.cur;
      true
    end
    else remove_op s

  and until_gone (s : session) victim =
    if not (cleanup_edge s) then
      if Sk.search s && s.live.cur == victim then until_gone s victim

  let session t =
    let ext h =
      let lasting =
        Array.init (if hop_shields then 2 else 0) (fun _ -> S.new_shield h)
      in
      { lasting; prune_to = Link.null; prune_body = Fun.const false }
    in
    let idle =
      { anc = t.root; alink = Link.null; par = t.root; plink = Link.null; cur = t.root }
    in
    let s =
      Sk.create ~shields:5 ~idle ~ext ~init ~walk
        ~insert:(fun s -> insert_op s no_leaf)
        ~remove:remove_op t
    in
    s.x.prune_body <- (fun () -> prune s);
    s

  let close_session = Sk.close_session
  let get = Sk.get
  let insert = Sk.insert
  let remove = Sk.remove
  let cleanup t s = ignore (get t s (inf0 - 1) : bool)
end
