(** Non-blocking external BST (Ellen, Fatourou, Ruppert, van Breugel,
    PODC 2010) — Table 1's "ext. BST (EFRB)" row, notable as the only tree
    in the matrix that plain HP supports (✓ in the HP/HE/IBR column):
    every routing node is unlinked from a {e Clean} grandparent whose
    update word pins the whole two-node removal, so traversals never read
    out of retired nodes.

    Coordination is through per-internal-node [update] words holding a
    state and an operation descriptor (Info record): Insert flags the
    parent (IFlag), swings the child, unflags; Delete flags the
    grandparent (DFlag), marks the parent (Mark, permanent), swings the
    grandparent's child past the parent, unflags.  Any operation meeting a
    non-Clean update word {e helps} it first.  Descriptors are ordinary
    GC'd records; only tree nodes carry reclamation blocks.

    Retirement: the unique winner of the grandparent child-swing retires
    the marked parent and the deleted leaf. *)

module Block = Hpbrcu_alloc.Block
module Alloc = Hpbrcu_alloc.Alloc
module Link = Hpbrcu_core.Link
open Hpbrcu_core.Smr_intf

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
  key : int;  (* routing key; leaves store the element *)
  leaf : bool;
  right : node Link.cell;
  update : update Atomic.t;
}

and update = Clean | IFlag of iinfo | DFlag of dinfo | Mark of dinfo

and iinfo = { ip : node; il : node; inew : node (* new internal *) }

and dinfo = {
  dgp : node;
  dp : node;
  dl : node;
  dpupdate : update;  (* p's update word observed at flag time *)
}

external blk : node -> Block.t = "%identity"

(* Every leaf's [left] and [right]: one cell, holding the shared null for
   good; and every leaf's [update]: one box, holding [Clean] for good.  No
   operation reads or writes either: [walk] reads a node's [update] and
   child only when it is not a leaf; [cas_child] and [help_marked] act on
   a descriptor's [ip], [dgp] and [dp], and [insert] and [remove] CAS the
   cursor's [p] and [gp], all of them internal nodes met above a leaf (or
   [no_node], which [remove] tests for first); and nothing pools EFRB
   nodes. *)
let leaf_child : node Link.cell = Link.cell Link.null
let leaf_update = Atomic.make Clean

(** A fresh node, [Live].  [recyclable] so that VBR's instant reuse keeps
    its access-check exemption: EFRB does not pool, but under VBR an
    optimistic reader may legally observe a reclaimed node. *)
let mk_node ~recyclable key ~leaf ~left ~right ~update =
  {
    left;
    word = Block.live; id = Alloc.fresh_id (); recyclable;
    birth_era = 0; retire_era = -1; poison = 0; owner = 0;
    key;
    leaf;
    right;
    update;
  }

let mk_leaf ~recyclable key =
  mk_node ~recyclable key ~leaf:true ~left:leaf_child ~right:leaf_child
    ~update:leaf_update

let mk_internal ~recyclable key ~left ~right =
  mk_node ~recyclable key ~leaf:false ~left:(Link.cell (Link.ptr left))
    ~right:(Link.cell (Link.ptr right)) ~update:(Atomic.make Clean)

module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let name = "EFRB-BST(" ^ (caps (module S)).Hpbrcu_core.Caps.name ^ ")"

  (* Sentinels: inf1 < inf2, both above every real key. *)
  let inf1 = max_int - 1
  let inf2 = max_int

  type t = { root : node }

  let recyclable = S.recycles

  let create () =
    {
      root =
        mk_internal ~recyclable inf2 ~left:(mk_leaf ~recyclable inf1)
          ~right:(mk_leaf ~recyclable inf2);
    }

  let child_cell n key = if key < n.key then n.left else n.right

  (* ---------------- search ---------------- *)

  (* Cursor: grandparent, parent, leaf plus the update words observed when
     crossing them (the EFRB search postcondition); [gp] is {!no_node}
     until the search has a grandparent. *)
  type cursor = {
    mutable gp : node;
    mutable gpupdate : update;
    mutable p : node;
    mutable pupdate : update;
    mutable l : node;
  }

  (* The grandparent of a cursor still at the root: a node outside the
     tree, with no block of its own ({!gp_blk}). *)
  let no_node =
    {
      left = leaf_child;
      word = Block.live; id = -1; recyclable = false;
      birth_era = 0; retire_era = -1; poison = 0; owner = 0;
      key = min_int;
      leaf = true;
      right = leaf_child;
      update = leaf_update;
    }

  (* The grandparent's block: {!Block.none} for {!no_node}, which, like
     an entry point, is protected by emptying the slot. *)
  let gp_blk gp = if gp == no_node then Block.none else blk gp

  (* The descriptors a session holds before its first update. *)
  let no_iinfo = { ip = no_node; il = no_node; inew = no_node }
  let no_dinfo = { dgp = no_node; dp = no_node; dl = no_node; dpupdate = Clean }

  module Sk =
    Session.Make
      (S)
      (struct
        type shield = S.shield
        type t = cursor

        let clone c =
          { gp = c.gp; gpupdate = c.gpupdate; p = c.p; pupdate = c.pupdate; l = c.l }

        let copy ~src ~dst =
          dst.gp <- src.gp;
          dst.gpupdate <- src.gpupdate;
          dst.p <- src.p;
          dst.pupdate <- src.pupdate;
          dst.l <- src.l

        (* Resuming a checkpointed EFRB cursor cannot be revalidated
           locally (deletion state lives in ancestors' update words), so
           rollbacks restart the operation from the root; EFRB searches
           are short (log n), making restarts cheap.  The walker says so
           ([~resumable:false]), so that HP-RCU walks it in one critical
           section instead of ending a section it could never resume. *)
        let validate _ = false

        let protect (sh : S.shield array) c =
          S.protect sh.(0) (gp_blk c.gp);
          S.protect sh.(1) (blk c.p);
          S.protect sh.(2) (blk c.l)
      end)

  (* A session's own fields: the descriptors [insert_masked] ([iop]) and
     [delete_masked] and [marked_masked] ([dop]) act on, and those
     bodies, built once per session.  A mask body reads its descriptor
     first, since it may mask another. *)
  type ext = {
    mutable iop : iinfo;
    mutable dop : dinfo;
    mutable insert_masked : unit -> unit;
    mutable delete_masked : unit -> bool;
    mutable marked_masked : unit -> unit;
  }

  type session = (t, ext) Sk.session

  let init (s : session) =
    let root = s.ds.root in
    let l0 = Link.target_exn (S.read s.h ~src:(blk root) ~hdr:blk root.left) in
    let pupdate = Atomic.get root.update in
    { gp = no_node; gpupdate = Clean; p = root; pupdate; l = l0 }

  (* The walk stops: write the cursor back to the session. *)
  let stop (s : session) gp gpupdate p pupdate l r =
    let c = s.live in
    c.gp <- gp;
    c.gpupdate <- gpupdate;
    c.p <- p;
    c.pupdate <- pupdate;
    c.l <- l;
    r

  (* The search, at most [n] steps of it, with the cursor in the
     arguments. *)
  let rec walk_from (s : session) key n gp gpupdate p pupdate l =
    if n = 0 then stop s gp gpupdate p pupdate l walk_more
    else begin
      s.w.steps <- s.w.steps + 1;
      if l.leaf then begin
        s.found <- l.key = key;
        stop s gp gpupdate p pupdate l walk_done
      end
      else begin
        let lupdate = Atomic.get l.update in
        let next = S.read s.h ~src:(blk l) ~hdr:blk (child_cell l key) in
        match next with
        | Link.Null _ -> walk_fail (* torn read; retry *)
        | Link.Ptr { target = nl; _ } ->
            walk_from s key (n - 1) p pupdate l lupdate nl
      end
    end

  let walk (s : session) n =
    let c = s.live in
    walk_from s s.key n c.gp c.gpupdate c.p c.pupdate c.l

  (* ---------------- helping ---------------- *)

  (* Swing [parent]'s child from [old_child] to [desired]: succeeds at most
     once across all helpers because the expected link record is the one
     currently stored. *)
  let cas_child parent old_child desired =
    (* The old child's position: compare against both sides (keys of
       descriptors may equal the routing key). *)
    let l = Link.get parent.left in
    if Link.points_to l old_child then
      Link.cas parent.left ~expected:l ~desired:(Link.ptr desired)
    else
      let r = Link.get parent.right in
      Link.points_to r old_child
      && Link.cas parent.right ~expected:r ~desired:(Link.ptr desired)

  (* Unflagging must CAS against the *installed* update record: variant
     values compare physically under [Atomic.compare_and_set], so a
     reconstructed [IFlag op] would never match.  Read, identify, CAS. *)
  let unflag_insert (op : iinfo) =
    match Atomic.get op.ip.update with
    | IFlag op' as cur when op' == op ->
        ignore (Atomic.compare_and_set op.ip.update cur Clean : bool)
    | _ -> ()

  let unflag_delete (op : dinfo) =
    match Atomic.get op.dgp.update with
    | DFlag op' as cur when op' == op ->
        ignore (Atomic.compare_and_set op.dgp.update cur Clean : bool)
    | _ -> ()

  let help_insert (op : iinfo) =
    (* Swing p's child from l to the new internal, then unflag. *)
    ignore (cas_child op.ip op.il op.inew : bool);
    unflag_insert op

  (* [marked_masked]: the Mark on p is permanent; the winner of the gp
     child swing retires p and l (unique: the expected link record wins
     once).  The whole unlink+retire pair is abort-masked so a rollback
     cannot separate them. *)
  let marked (s : session) (op : dinfo) =
    (* Identify p's other child (frozen: p is marked). *)
    let other =
      let l = Link.get op.dp.left in
      if Link.points_to l op.dl then Link.get op.dp.right else l
    in
    (match other with
    | Link.Ptr { target = other; _ } ->
        if cas_child op.dgp op.dp other then begin
          (* We unlinked p (and l with it): retire both. *)
          if Alloc.try_retire (blk op.dp) then
            if S.patches then
              S.retire s.h (blk op.dp) ~claimed:true ~patch:[ blk other ]
            else S.retire s.h (blk op.dp) ~claimed:true;
          if Alloc.try_retire (blk op.dl) then
            S.retire s.h (blk op.dl) ~claimed:true
        end
    | Link.Null _ -> ());
    unflag_delete op

  let help_marked (s : session) op =
    s.x.dop <- op;
    S.mask s.h s.x.marked_masked

  let rec help s (u : update) =
    match u with
    | IFlag op -> help_insert op
    | Mark op -> help_marked s op
    | DFlag op -> ignore (help_delete s op : bool)
    | Clean -> ()

  (* Whether the delete [op] marked p.  Success (or an existing identical
     mark) lets the delete proceed; a foreign update on p aborts ours. *)
  and help_delete s (op : dinfo) =
    let marked =
      Atomic.compare_and_set op.dp.update op.dpupdate (Mark op)
      ||
      match Atomic.get op.dp.update with Mark op' -> op' == op | _ -> false
    in
    if marked then help_marked s op
    else begin
      help s (Atomic.get op.dp.update);
      (* Back out: unflag gp so others can proceed. *)
      unflag_delete op
    end;
    marked

  (* ---------------- operations ---------------- *)

  (* Search, and link a leaf in if the key is absent.  [new_leaf] is
     {!no_node} until a search has missed at a clean parent: the leaf is
     built only then, and an attempt that loses its IFlag retries with
     it. *)
  let rec insert_op (s : session) new_leaf =
    if Sk.search s then begin
      if new_leaf != no_node then Alloc.abandon (blk new_leaf);
      false
    end
    else
      let c = s.live in
      if c.pupdate <> Clean then begin
        help s c.pupdate;
        insert_op s new_leaf
      end
      else begin
        let key = s.key in
        let new_leaf =
          if new_leaf == no_node then mk_leaf ~recyclable key else new_leaf
        in
        let new_internal =
          if key < c.l.key then
            mk_internal ~recyclable c.l.key ~left:new_leaf ~right:c.l
          else mk_internal ~recyclable key ~left:c.l ~right:new_leaf
        in
        let op = { ip = c.p; il = c.l; inew = new_internal } in
        if Atomic.compare_and_set c.p.update c.pupdate (IFlag op) then begin
          s.x.iop <- op;
          S.mask s.h s.x.insert_masked;
          true
        end
        else begin
          (* IFlag lost: [op] was never published, so the wrapper is
             unreachable — write it off as abandoned (leak-at-quiescence
             accounting, DESIGN.md §11). *)
          Alloc.abandon (blk new_internal);
          help s (Atomic.get c.p.update);
          insert_op s new_leaf
        end
      end

  let rec remove_op (s : session) =
    Sk.search s
    &&
    let c = s.live in
    let gp = c.gp in
    if gp == no_node then false (* a sentinel child of the root *)
    else if c.gpupdate <> Clean then begin
      help s c.gpupdate;
      remove_op s
    end
    else if c.pupdate <> Clean then begin
      help s c.pupdate;
      remove_op s
    end
    else begin
      let op = { dgp = gp; dp = c.p; dl = c.l; dpupdate = c.pupdate } in
      if Atomic.compare_and_set gp.update c.gpupdate (DFlag op) then begin
        (* Marking may fail (competitor on p): then the flag is backed
           out inside help_delete and we retry. *)
        s.x.dop <- op;
        S.mask s.h s.x.delete_masked || remove_op s
      end
      else begin
        help s (Atomic.get gp.update);
        remove_op s
      end
    end

  let session t =
    let ext _ =
      {
        iop = no_iinfo;
        dop = no_dinfo;
        insert_masked = ignore;
        delete_masked = Fun.const false;
        marked_masked = ignore;
      }
    in
    let s =
      Sk.create ~resumable:false ~shields:3
        ~idle:
          { gp = no_node; gpupdate = Clean; p = t.root; pupdate = Clean; l = t.root }
        ~ext ~init ~walk
        ~insert:(fun s -> insert_op s no_node)
        ~remove:remove_op t
    in
    s.x.insert_masked <- (fun () -> help_insert s.x.iop);
    s.x.delete_masked <- (fun () -> help_delete s s.x.dop);
    s.x.marked_masked <- (fun () -> marked s s.x.dop);
    s

  let close_session = Sk.close_session
  let get = Sk.get
  let insert = Sk.insert
  let remove = Sk.remove
  let cleanup _t _s = ()
end
