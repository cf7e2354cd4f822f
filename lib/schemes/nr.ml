(** NR — the no-reclamation baseline of §6.

    Retired blocks are counted but never reclaimed (in C this leaks; under
    a GC it merely inflates the unreclaimed counter, which is exactly the
    number the paper plots).  Reads are bare loads: NR is the speed of
    light every other scheme is normalized against (Figures 1 and 6 plot
    throughput as a ratio to NR).

    A NR domain is nothing but its {!Smr_intf.Dom.t} identity — there is
    no reclamation state to hoist — but it still tags retirements, so the
    per-domain unreclaimed watermark works (and, for NR, only grows). *)

module Alloc = Hpbrcu_alloc.Alloc
open Hpbrcu_core
module Dom = Smr_intf.Dom

module Impl : Smr_intf.SCHEME = struct
  let scheme = "NR"

  let caps (_ : Config.t) : Caps.t =
    {
      name = "NR";
      robust_stalled = false;
      robust_longrun = false;
      per_node = NoOverhead;
      starvation = Free;
      supports = Caps.yes_all;
      bound = Caps.unbounded;
    }

  type domain = Dom.t

  let create ?label config = Dom.make ~scheme ?label config

  let destroy ?force d =
    Dom.begin_destroy ?force d;
    Dom.finish_destroy d

  let dom d = d

  type handle = Dom.t

  let register d =
    Dom.on_register d;
    d

  let unregister h = Dom.on_unregister h
  let flush _ = ()
  let expedite = flush

  type shield = unit

  let new_shield _ = ()
  let protect () _ = ()
  let clear () = ()

  exception Restart

  let op _ body =
    let rec go () = try body () with Restart -> go () in
    go ()

  let crit _ body = body ()
  let mask _ body = body ()

  let read _ () ~src:_ ~hdr:_ cell =
    Hpbrcu_runtime.Sched.yield ();
    Link.get cell

  let deref _ _ = ()

  let retire h ?free:_ ?patch:_ ?(claimed = false) blk =
    if not claimed then Alloc.retire blk;
    Dom.tag_retire h blk

  let recycles = false
  let current_era _ = 0

  let traverse _ ~prot ~backup:_ w = Scheme_common.plain_traverse ~prot w

  let stats d = Dom.stamp_stats d Hpbrcu_runtime.Stats.empty
end
