(** HP-RCU — hazard pointers with RCU-expedited traversal (paper §3).

    The partial solution: traversals alternate between RCU phases (a
    bounded number of bare-load steps inside an epoch critical section,
    Algorithm 3) and HP checkpoints (the acquired cursor is protected in
    shields before the critical section ends, and revalidated — R1 — when
    the next one starts).  Retirement is two-step (Algorithm 4):
    [Retire p = RCU.defer (fun () -> HP.retire p)], so a pointer acquired
    inside a critical section is dereferenceable without protection and
    protectable without validation (Figure 4's timeline).

    Robust against long-running operations (each critical section is at
    most [max_steps] long) but {e not} against stalled threads: a reader
    preempted inside a critical section still blocks the epoch — the gap
    HP-BRCU closes.

    The domain embeds an epoch half and an HP half sharing one
    {!Smr_intf.Dom.t} identity; the epoch half's executor hands expired
    {!Hpbrcu_core.Retired.entry}s straight to the HP half's orphan list
    (intrusive two-step retirement, no closure per retire). *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
open Hpbrcu_core
module Dom = Smr_intf.Dom
module E = Epoch_core
module H = Hp_core

module Impl : Smr_intf.SCHEME = struct
  let scheme = "HP-RCU"

  let caps (_ : Config.t) : Caps.t =
    {
      name = "HP-RCU";
      robust_stalled = false;
      robust_longrun = true;
      per_node = NoOverhead;
      starvation = Fine;
      supports = Caps.supports_optimistic;
      (* The RCU half is plain unbounded RCU (Table 2: not stall-robust);
         a crashed reader pins the epoch list without limit. *)
      bound = Caps.unbounded;
    }

  type domain = {
    meta : Dom.t;
    ed : E.domain;
    hd : H.domain;
    max_steps : int;
  }

  let create ?label config =
    let meta = Dom.make ~scheme ?label config in
    let hd = H.create meta in
    {
      meta;
      hd;
      (* Two-step retirement's second step: expired deferrals land in the
         HP half, still subject to the shield scan. *)
      ed = E.create ~execute:(H.retire_deferred_entry hd) meta;
      max_steps = config.Config.max_steps;
    }

  let dom d = d.meta

  let destroy ?force d =
    Dom.begin_destroy ?force d.meta;
    begin
      E.drain d.ed;
      H.drain d.hd;
      Dom.finish_destroy d.meta
    end

  (* The running traversal's walker, protector and progress live in the
     handle, and [phase] — the critical-section body — is built once per
     handle, so a traversal allocates nothing per phase. *)
  type handle = {
    d : domain;
    eh : E.handle;
    hh : H.handle;
    mutable tw : H.shield Smr_intf.walker;
    mutable tprot : H.shield array;
    mutable started : bool;
    phase : unit -> int;
  }

  (* One phase of RCU-expedited traversal (Algorithm 3): a critical
     section of at most [max_steps] steps that checkpoints the cursor into
     [prot] before it ends (protection inside a critical section needs no
     validation — R2) and revalidates it when the next one begins (R1).
     The first phase builds the cursor from the entry point inside its own
     critical section, so no revalidation applies to it (R1 holds
     trivially); failing a fresh entry-point cursor would prevent the
     traversal from ever helping a marked entry node (see Hp_brcu). *)
  let phase h () =
    let w = h.tw in
    let ok =
      if h.started then w.restore 0
      else begin
        w.init ();
        w.protect h.tprot;
        h.started <- true;
        true
      end
    in
    if not ok then Smr_intf.walk_fail
    else begin
      let r = w.walk h.d.max_steps in
      if r <> Smr_intf.walk_fail then begin
        w.protect h.tprot;
        w.save 0
      end;
      r
    end

  let register d =
    Dom.on_register d.meta;
    let rec h =
      {
        d;
        eh = E.register d.ed;
        hh = H.register d.hd;
        tw = Smr_intf.idle_walker ();
        tprot = [||];
        started = false;
        phase = (fun () -> phase h ());
      }
    in
    h

  let unregister h =
    E.unregister h.eh;
    H.unregister h.hh;
    Dom.on_unregister h.d.meta

  let flush h =
    E.flush h.eh;
    H.flush h.hh

  let expedite = flush

  type shield = H.shield

  let new_shield h = H.new_shield h.hh
  let protect = H.protect
  let clear = H.clear

  exception Restart

  let op _ body =
    let rec go () = try body () with Restart -> go () in
    go ()

  let crit h body = E.crit h.eh body
  let mask _ body = body ()

  (* Inside a critical section links are protected coarsely; no per-node
     work beyond the use-after-free check (and the fiber-mode interleaving
     point). *)
  let read _h _s ~src ~hdr:_ cell =
    Sched.yield ();
    Alloc.check_access src;
    Link.get cell

  let deref _ blk = Alloc.check_access blk

  (* Two-step retirement (Algorithm 4), intrusive: the entry deferred on
     the epoch side is the same record the HP side later scans. *)
  let retire h ?free ?patch:_ ?(claimed = false) blk =
    if not claimed then Alloc.retire blk;
    Dom.tag_retire h.d.meta blk;
    E.defer h.eh ?free blk;
    H.maybe_scan h.hh

  let recycles = false
  let current_era _ = 0

  (* Leaving and re-entering the critical section is the point: the epoch
     can advance between phases. *)
  let rec phases h =
    let r = E.crit h.eh h.phase in
    if r = Smr_intf.walk_more then phases h else r = Smr_intf.walk_done

  let traverse h ~prot ~backup:_ w =
    if h.tw != w then h.tw <- w;
    if h.tprot != prot then h.tprot <- prot;
    h.started <- false;
    phases h

  let stats d =
    Dom.stamp_stats d.meta
      (Hpbrcu_runtime.Stats.add (E.stats d.ed) (H.stats d.hd))
end
