(** HP++ — hazard pointers with protect-on-retire (Jung et al., SPAA 2023),
    simplified (see DESIGN.md §2.4).

    HP cannot support optimistic traversal: following a link out of an
    already-unlinked node can reach memory whose reclamation nothing
    prevents (Figure 2).  HP++ closes the hole by making the {e retirer} of
    a marked node publish protection of that node's successors ("patches")
    until the node itself is reclaimed.  A reader that validated the source
    link then holds either its own protection of the target or the
    patron's patch — in both cases the target outlives the access.

    The cost is HP's per-node protect/validate {e plus} the retire-side
    patch maintenance, which is why HP++ trails HP slightly on HP-friendly
    structures and trails coarse-grained schemes everywhere (Figures 5, 7).

    Differences from the real HP++ (documented substitution): patches are
    kept in a published per-thread set scanned at reclamation instead of
    being installed into the protection array with a handshake, and the
    link validation tolerates tag-only changes (the "invalidate then
    protect" dance collapses, because our simulated allocator checks
    accesses rather than unmapping pages).  The protected-set semantics —
    what may be reclaimed when — is the same.

    The domain is an {!Hp_core.domain} (shared machinery with HP); handles
    additionally publish their patch sets into the domain's
    [published_patches] list. *)

module Alloc = Hpbrcu_alloc.Alloc
module Block = Hpbrcu_alloc.Block
open Hpbrcu_core
module Dom = Smr_intf.Dom
module Core = Hp_core

module Impl : Smr_intf.SCHEME = struct
  let scheme = "HP++"

  let caps (cfg : Config.t) : Caps.t =
    {
      name = "HP++";
      robust_stalled = true;
      robust_longrun = true;
      per_node = ProtectAndValidate;
      starvation = Fine;
      supports = Caps.supports_optimistic;
      (* HP++ adds patched (unlink-protected) nodes on top of HP's batch:
         a crashed reader can additionally pin the nodes its patches
         cover, still O(batch) per thread. *)
      bound = (fun ~nthreads -> Some (nthreads * (cfg.Config.batch + 64) * 3));
    }

  type domain = Core.domain

  let create ?label config = Core.create (Dom.make ~scheme ?label config)
  let dom (d : domain) = d.Core.meta

  let destroy ?force (d : domain) =
    Dom.begin_destroy ?force d.Core.meta;
    begin
      Core.drain d;
      Dom.finish_destroy d.Core.meta
    end

  type handle = Core.handle

  let register d =
    Dom.on_register (dom d);
    let h = Core.register ~hop_ring:true d in
    Core.enable_patches h;
    h

  let unregister (h : handle) =
    Core.unregister h;
    Dom.on_unregister h.Core.d.Core.meta

  let flush = Core.flush

  type shield = Core.shield

  let new_shield = Core.new_shield
  let protect = Core.protect
  let clear = Core.clear

  let op _ body = body ()

  let crit _ body = body ()
  let mask _ body = body ()

  (* ProtectFrom, but validation compares targets only: a source whose link
     became marked (tag change) stays valid — the HP++ capability of
     traversing out of logically-deleted nodes.  If the node was since
     retired, its successor is held by the retirer's patch.  A
     module-level loop, so a hop builds no closure. *)
  let rec protect_from s hdr cell l =
    (match l with
    | Link.Null _ -> Core.protect s Block.none
    | Link.Ptr { target; _ } -> Core.protect s (hdr target));
    let l' = Link.get cell in
    if l' == l || Link.same_target l' l then l'
    else begin
      Hpbrcu_runtime.Sched.yield ();
      protect_from s hdr cell l'
    end

  let read h ~src ~hdr cell =
    Hpbrcu_runtime.Sched.yield ();
    Alloc.check_access src;
    protect_from (Core.next_hop h) hdr cell (Link.get cell)

  let deref _ blk = Alloc.check_access blk

  let retire h ?(patch = []) ?(claimed = false) blk =
    Core.retire h ~patches:patch ~claimed blk

  let recycles = false
  let patches = true
  let current_era _ = 0

  let traverse _ ~hold ~prot ~backup:_ w =
    Scheme_common.plain_traverse ~hold ~prot w

  let stats (d : domain) = Dom.stamp_stats d.Core.meta (Core.stats d)
end
