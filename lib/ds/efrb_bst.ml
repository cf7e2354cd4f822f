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

module Make (S : Hpbrcu_core.Smr_intf.S) : Ds_intf.MAP = struct
  let name = "EFRB-BST(" ^ S.name ^ ")"

  type node = {
    blk : Block.t;
    key : int;  (* routing key; leaves store the element *)
    leaf : bool;
    left : node Link.cell;
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

  let blk n = n.blk

  (* Sentinels: inf1 < inf2, both above every real key. *)
  let inf1 = max_int - 1
  let inf2 = max_int

  type t = { root : node }

  (* [recyclable] so that VBR's instant reuse keeps its access-check
     exemption; EFRB does not pool, but under VBR an optimistic reader may
     legally observe a reclaimed node. *)
  let mk_leaf key =
    {
      blk = Alloc.block ~recyclable:S.recycles ();
      key;
      leaf = true;
      left = Link.null_cell ();
      right = Link.null_cell ();
      update = Atomic.make Clean;
    }

  let mk_internal key ~left ~right =
    {
      blk = Alloc.block ~recyclable:S.recycles ();
      key;
      leaf = false;
      left = Link.cell (Link.ptr left);
      right = Link.cell (Link.ptr right);
      update = Atomic.make Clean;
    }

  let create () =
    { root = mk_internal inf2 ~left:(mk_leaf inf1) ~right:(mk_leaf inf2) }

  let child_cell n key = if key < n.key then n.left else n.right

  (* ---------------- search ---------------- *)

  (* Cursor: grandparent, parent, leaf plus the update words observed when
     crossing them (the EFRB search postcondition).  A session keeps the
     live cursor and the walker's two checkpoint slots in records like
     this; [gp] is {!no_node} until the search has a grandparent. *)
  type cursor = {
    mutable gp : node;
    mutable gpupdate : update;
    mutable p : node;
    mutable pupdate : update;
    mutable l : node;
  }

  (* The grandparent of a cursor still at the root: a node outside the
     tree, whose block is {!Block.none}. *)
  let no_node =
    {
      blk = Block.none;
      key = min_int;
      leaf = true;
      left = Link.null_cell ();
      right = Link.null_cell ();
      update = Atomic.make Clean;
    }

  type session = {
    h : S.handle;
    prot : S.shield array;  (* gp, p, l *)
    backup : S.shield array;
    mutable key : int;  (* the running search's key and answer *)
    mutable found : bool;
    mutable ds : t;  (* the structure the running search walks *)
    mutable live : cursor;
    slots : cursor array;  (* checkpoint slots 0 and 1 *)
    w : S.shield walker;
  }

  let close_session s =
    S.flush s.h;
    S.unregister s.h


  let protect_cursor s (sh : S.shield array) =
    let c = s.live in
    S.protect sh.(0) c.gp.blk;
    S.protect sh.(1) c.p.blk;
    S.protect sh.(2) c.l.blk

  (* Resuming a checkpointed EFRB cursor cannot be revalidated locally
     (deletion state lives in ancestors' update words), so rollbacks
     restart the operation from the root; EFRB searches are short (log n),
     making restarts cheap.  The walker says so ([resumable = false]), so
     that HP-RCU walks it in one critical section instead of ending a
     section it could never resume. *)
  let validate_cursor _ = false

  let copy_cursor ~src ~dst =
    dst.gp <- src.gp;
    dst.gpupdate <- src.gpupdate;
    dst.p <- src.p;
    dst.pupdate <- src.pupdate;
    dst.l <- src.l

  let init_cursor t s =
    let l0 =
      Link.target_exn (S.read s.h ~src:t.root.blk ~hdr:blk t.root.left)
    in
    let pupdate = Atomic.get t.root.update in
    let cursor () =
      { gp = no_node; gpupdate = Clean; p = t.root; pupdate; l = l0 }
    in
    s.live <- cursor ();
    s.slots.(0) <- cursor ();
    s.slots.(1) <- cursor ()

  (* The walk stops: write the cursor back to the session. *)
  let stop s gp gpupdate p pupdate l r =
    let c = s.live in
    c.gp <- gp;
    c.gpupdate <- gpupdate;
    c.p <- p;
    c.pupdate <- pupdate;
    c.l <- l;
    r

  (* The search, at most [n] steps of it, with the cursor in the
     arguments. *)
  let rec walk s key n gp gpupdate p pupdate l =
    if n = 0 then stop s gp gpupdate p pupdate l walk_more
    else begin
      s.w.steps <- s.w.steps + 1;
      if l.leaf then begin
        s.found <- l.key = key;
        stop s gp gpupdate p pupdate l walk_done
      end
      else begin
        let lupdate = Atomic.get l.update in
        let next = S.read s.h ~src:l.blk ~hdr:blk (child_cell l key) in
        match next with
        | Link.Null _ -> walk_fail (* torn read; retry *)
        | Link.Ptr { target = nl; _ } -> walk s key (n - 1) p pupdate l lupdate nl
      end
    end

  let session t =
    let h = S.register () in
    let shields n = Array.init n (fun _ -> S.new_shield h) in
    let prot = shields 3 in
    let backup = shields 3 in
    let cursor () =
      { gp = no_node; gpupdate = Clean; p = t.root; pupdate = Clean; l = t.root }
    in
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
            walk =
              (fun n ->
                let c = s.live in
                walk s s.key n c.gp c.gpupdate c.p c.pupdate c.l);
            save = (fun i -> copy_cursor ~src:s.live ~dst:s.slots.(i));
            restore =
              (fun i ->
                copy_cursor ~src:s.slots.(i) ~dst:s.live;
                validate_cursor s.live);
            protect = (fun sh -> protect_cursor s sh);
            resumable = false;
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

  let help_insert _s (op : iinfo) =
    (* Swing p's child from l to the new internal, then unflag. *)
    ignore (cas_child op.ip op.il op.inew : bool);
    unflag_insert op

  (* The Mark on p is permanent; the winner of the gp child swing retires
     p and l (unique: the expected link record wins once).  The whole
     unlink+retire pair is abort-masked so a rollback cannot separate
     them. *)
  let help_marked s (op : dinfo) =
    S.mask s.h (fun () ->
        (* Identify p's other child (frozen: p is marked). *)
        let other =
          let l = Link.get op.dp.left in
          if Link.points_to l op.dl then Link.get op.dp.right else l
        in
        (match other with
        | Link.Ptr { target = other; _ } ->
            if cas_child op.dgp op.dp other then begin
              (* We unlinked p (and l with it): retire both. *)
              if Alloc.try_retire op.dp.blk then
                S.retire s.h op.dp.blk ~claimed:true ~patch:[ other.blk ];
              if Alloc.try_retire op.dl.blk then
                S.retire s.h op.dl.blk ~claimed:true
            end
        | Link.Null _ -> ());
        unflag_delete op)

  let rec help s (u : update) =
    match u with
    | IFlag op -> help_insert s op
    | Mark op -> help_marked s op
    | DFlag op -> help_delete s op
    | Clean -> ()

  and help_delete s (op : dinfo) =
    (* Try to mark p; success (or an existing identical mark) lets the
       delete proceed; a foreign update on p aborts ours. *)
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
    end

  (* ---------------- operations ---------------- *)

  let get t s key =
    S.op s.h (fun () ->
        search t s key ~hold:false;
        s.found)

  let insert t s key value =
    ignore value;
    S.op s.h (fun () ->
        let rec attempt () =
          search t s key ~hold:true;
          let c = s.live and found = s.found in
          if found then false
          else if c.pupdate <> Clean then begin
            help s c.pupdate;
            attempt ()
          end
          else begin
            let new_leaf = mk_leaf key in
            let new_internal =
              if key < c.l.key then
                mk_internal c.l.key ~left:new_leaf ~right:c.l
              else mk_internal key ~left:c.l ~right:new_leaf
            in
            let op = { ip = c.p; il = c.l; inew = new_internal } in
            if Atomic.compare_and_set c.p.update c.pupdate (IFlag op) then begin
              S.mask s.h (fun () -> help_insert s op);
              true
            end
            else begin
              (* IFlag lost: [op] was never published, so the fresh leaf
                 and wrapper are unreachable — write them off as abandoned
                 (leak-at-quiescence accounting, DESIGN.md §11). *)
              Alloc.abandon new_leaf.blk;
              Alloc.abandon new_internal.blk;
              help s (Atomic.get c.p.update);
              attempt ()
            end
          end
        in
        attempt ())

  let remove t s key =
    S.op s.h (fun () ->
        let rec attempt () =
          search t s key ~hold:true;
          let c = s.live and found = s.found in
          if not found then false
          else
            let gp = c.gp in
            if gp == no_node then false (* a sentinel child of the root *)
            else
                if c.gpupdate <> Clean then begin
                  help s c.gpupdate;
                  attempt ()
                end
                else if c.pupdate <> Clean then begin
                  help s c.pupdate;
                  attempt ()
                end
                else begin
                  let op =
                    { dgp = gp; dp = c.p; dl = c.l; dpupdate = c.pupdate }
                  in
                  if Atomic.compare_and_set gp.update c.gpupdate (DFlag op)
                  then begin
                    (* Marking may fail (competitor on p): then the flag is
                       backed out inside help_delete and we retry. *)
                    let won = ref false in
                    S.mask s.h (fun () ->
                        let marked =
                          Atomic.compare_and_set op.dp.update op.dpupdate
                            (Mark op)
                          ||
                          match Atomic.get op.dp.update with
                          | Mark op' -> op' == op
                          | _ -> false
                        in
                        if marked then begin
                          help_marked s op;
                          won := true
                        end
                        else begin
                          help s (Atomic.get op.dp.update);
                          unflag_delete op
                        end);
                    if !won then true else attempt ()
                  end
                  else begin
                    help s (Atomic.get gp.update);
                    attempt ()
                  end
                end
        in
        attempt ())

  let cleanup _t _s = ()
end
