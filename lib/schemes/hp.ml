(** HP — hazard pointers (Michael, §2.1, Algorithm 1).

    Every traversal link load runs the ProtectFrom loop: publish protection
    of the target, fence (SC store), re-read the source and retry until it
    is unchanged.  This per-node protect+validate is the overhead HP-BRCU
    exists to remove; in exchange, the number of unreclaimed blocks is
    bounded by the number of shields regardless of stalls or operation
    length.

    HP requires each node to be unlinked from an unmarked predecessor
    before retirement, so it does not support optimistic traversal (the
    Figure 2 scenario): it runs HMList but not HList/HHSList/NMTree, as in
    Table 1.

    The domain is the {!Hp_core.domain} itself — shield table, orphan
    list and scan counters all per-domain. *)

module Alloc = Hpbrcu_alloc.Alloc
open Hpbrcu_core
module Dom = Smr_intf.Dom
module Core = Hp_core

module Impl : Smr_intf.SCHEME = struct
  let scheme = "HP"

  let caps (cfg : Config.t) : Caps.t =
    {
      name = "HP";
      robust_stalled = true;
      robust_longrun = true;
      per_node = ProtectAndValidate;
      starvation = Fine;
      supports = Caps.supports_hp;
      (* Classic HP bound: each thread holds at most one full batch plus
         its shield-protected blocks; a crashed thread leaks exactly that
         much and no more (shields pin single nodes, not epochs).  The
         slack factor absorbs orphan adoption races. *)
      bound = (fun ~nthreads -> Some (nthreads * (cfg.Config.batch + 64) * 2));
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
    Core.register d

  let unregister (h : handle) =
    Core.unregister h;
    Dom.on_unregister h.Core.d.Core.meta

  let flush = Core.flush
  let expedite = flush

  type shield = Core.shield

  let new_shield = Core.new_shield
  let protect = Core.protect
  let clear = Core.clear

  exception Restart

  let op _ body =
    let rec go () = try body () with Restart -> go () in
    go ()

  let crit _ body = body ()
  let mask _ body = body ()

  (* ProtectFrom (Algorithm 1 lines 4-10): the load is validated by
     re-reading the source cell after the SC protection store; physical
     equality of the link record means the cell is unchanged, hence the
     target was still reachable from the source after the protection was
     visible. *)
  let read _h s ?src ~hdr cell =
    Hpbrcu_runtime.Sched.yield ();
    Option.iter Alloc.check_access src;
    let rec loop l =
      (match Link.target l with
      | None -> Core.protect s None
      | Some n -> Core.protect s (Some (hdr n)));
      (* Atomic store above is SC: fence(SC) of line 7. *)
      let l' = Link.get cell in
      if l' == l then l
      else begin
        Hpbrcu_runtime.Sched.yield ();
        loop l'
      end
    in
    loop (Link.get cell)

  let deref _ blk = Alloc.check_access blk

  let retire h ?free ?patch:_ ?(claimed = false) blk =
    Core.retire h ?free ~patches:[] ~claimed blk

  let recycles = false
  let current_era _ = 0

  let traverse _h ~prot ~backup:_ ~protect ~validate:_ ~init ~step =
    Scheme_common.plain_traverse ~prot ~protect ~init ~step

  let stats (d : domain) = Dom.stamp_stats d.Core.meta (Core.stats d)
end
