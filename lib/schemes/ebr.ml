(** EBR — Fraser-style epoch-based RCU (§2.2), the paper's "RCU" line.

    Whole operations run inside one critical section ({!Impl.op} pins an
    epoch for its entire extent), so traversal reads are bare loads —
    maximal efficiency, zero robustness: a reader pinned at an old epoch
    blocks the global epoch and with it all reclamation (the unbounded
    footprint of Figures 1b and 6b).

    The domain is the {!Epoch_core.domain} itself, with the default
    executor (reclaim on expiry).  Retirement is intrusive: the block
    header and epoch stamp land in a preallocated {!Retired.entry}, no
    closure per retire. *)

module Alloc = Hpbrcu_alloc.Alloc
open Hpbrcu_core
module Dom = Smr_intf.Dom
module E = Epoch_core

module Impl : Smr_intf.SCHEME = struct
  let scheme = "RCU"

  let caps (_ : Config.t) : Caps.t =
    {
      name = "RCU";
      robust_stalled = false;
      robust_longrun = false;
      per_node = NoOverhead;
      starvation = Free;
      supports = Caps.yes_all;
      (* One stalled/crashed reader pins its epoch forever; every batch
         retired after that stays queued — Figure 1's unbounded growth. *)
      bound = Caps.unbounded;
    }

  type domain = E.domain

  let create ?label config = E.create (Dom.make ~scheme ?label config)
  let dom (d : domain) = d.E.meta

  let destroy ?force (d : domain) =
    Dom.begin_destroy ?force d.E.meta;
    begin
      E.drain d;
      Dom.finish_destroy d.E.meta
    end

  type handle = E.handle

  let register d =
    Dom.on_register (dom d);
    E.register d

  let unregister (h : handle) =
    E.unregister h;
    Dom.on_unregister h.E.d.E.meta

  let flush = E.flush
  let expedite = flush

  type shield = unit

  let new_shield _ = ()
  let protect () _ = ()
  let clear () = ()

  exception Restart

  (* The whole operation is one critical section; retries (CAS races) stay
     inside it, as in crossbeam-style RCU data structures. *)
  let op h body =
    E.crit h (fun () ->
        let rec go () = try body () with Restart -> go () in
        go ())

  let crit = E.crit
  let mask _ body = body ()

  let read h () ~src ~hdr:_ cell =
    assert (E.pinned h);
    Hpbrcu_runtime.Sched.yield ();
    Alloc.check_access src;
    Link.get cell

  let deref _ blk = Alloc.check_access blk

  let retire (h : handle) ?free ?patch:_ ?(claimed = false) blk =
    if not claimed then Alloc.retire blk;
    Dom.tag_retire h.E.d.E.meta blk;
    E.defer h ?free blk

  let recycles = false
  let current_era _ = 0

  let traverse _ ~prot ~backup:_ w = Scheme_common.plain_traverse ~prot w

  let stats (d : domain) = Dom.stamp_stats d.E.meta (E.stats d)
end
