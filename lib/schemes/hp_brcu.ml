(** HP-BRCU — the paper's full solution (§4): HP-RCU with RCU replaced by
    bounded RCU.

    Traversals run inside BRCU critical sections that other threads can
    abort (selective neutralization of lagging readers, Algorithm 5), so a
    stalled reader can no longer block reclamation; periodic HP checkpoints
    with {e double buffering} (Algorithm 7) guarantee that a rollback
    arriving mid-checkpoint always leaves one complete protector to resume
    from.  Abort-rollback-unsafe writes during traversal — helping
    physical deletion plus retirement, as in the Harris-Michael list
    (Algorithm 8) — run inside abort-masked regions (Algorithm 6) on
    HP-protected pointers.

    Retirement is the two-step [BRCU.defer (fun () -> HP.retire p)] —
    intrusively, the retired block itself flows from the BRCU side's task
    list into the HP side's orphan list ({!Hp_core.retire_deferred}), with
    no closure or record built per retire — giving the
    bound of §5: at most [2GN + GN² + H] unreclaimed blocks with
    [G = max_local_tasks × force_threshold], [N] threads and [H] shields.

    Both halves share one {!Smr_intf.Dom.t}; a shield carries its
    session's BRCU handle, so the simulator's checkpoint delivery point
    polls that session's own signal box.  Abort-masking and double
    buffering are always on: the hunt's planted mutants
    ([HP-BRCU!nomask], [HP-BRCU!nodb]) include this module and replace
    its [mask] or [traverse] ({!Hpbrcu_workload.Matrix.hunt_impls}). *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
open Hpbrcu_core
module Dom = Smr_intf.Dom
module B = Brcu_core
module H = Hp_core

module Impl : Smr_intf.SCHEME = struct
  let scheme = "HP-BRCU"

  let caps (cfg : Config.t) : Caps.t =
    {
      name = "HP-BRCU";
      robust_stalled = true;
      robust_longrun = true;
      per_node = NoOverhead;
      starvation = Fine;
      supports = Caps.supports_optimistic;
      (* Paper §5: with G = max_local_tasks × force_threshold a thread
         schedules at most G deferred tasks per epoch, giving at most
         2GN + GN² unreclaimed in the BRCU stage plus H for the HP stage's
         per-thread batches and shields. *)
      bound =
        (fun ~nthreads ->
          let g = cfg.Config.max_local_tasks * cfg.Config.force_threshold in
          let n = nthreads in
          Some ((2 * g * n) + (g * n * n) + (n * (cfg.Config.batch + 64))));
    }

  type domain = {
    meta : Dom.t;
    bd : B.domain;
    hd : H.domain;
    (* Traversal diagnostics (reported via [stats]).  Handles count steps,
       traversals and resumes in plain fields and fold them in here at
       [flush]/[unregister]. *)
    tr_steps : Stats.Counter.t;
    tr_validate_fail : Stats.Counter.t;
    tr_traverses : Stats.Counter.t;
    tr_resumes : Stats.Counter.t;
    backup_period : int;  (* Algorithm 7's BackupPeriod *)
  }

  let create ?label config =
    let meta = Dom.make ~scheme ?label config in
    let hd = H.create meta in
    {
      meta;
      hd;
      (* Two-step retirement's second step: expired deferrals land in the
         HP half, still subject to the shield scan. *)
      bd = B.create ~execute:(H.retire_deferred hd) meta;
      tr_steps = Stats.Counter.make ();
      tr_validate_fail = Stats.Counter.make ();
      tr_traverses = Stats.Counter.make ();
      tr_resumes = Stats.Counter.make ();
      backup_period = config.Config.checkpoint_steps;
    }

  let dom d = d.meta

  let destroy ?force d =
    Dom.begin_destroy ?force d.meta;
    begin
      B.drain d.bd;
      H.drain d.hd;
      Dom.finish_destroy d.meta
    end

  (* The HP slot plus the BRCU handle of the session that owns it.  A
     shield belongs to one session, and a checkpoint runs inside that
     session's own [crit], so the handle is the one a signal aimed at the
     checkpoint's section lands on: in the paper a signal can land between
     any two instructions, in particular between the two protect stores of
     a checkpoint (the case double buffering exists for, §4.3). *)
  type shield = { hs : H.shield; sbh : B.handle }

  (* The running traversal's state lives in the handle, and [section] —
     the critical-section body — is built once per handle, so neither a
     traversal nor its rollbacks allocate a closure.  [bufs0]/[bufs1] are
     the double buffer (the caller's [backup] and [prot]); [comp] counts
     completed checkpoints minus one, so it is -1 until the first, and
     from then on [comp land 1] indexes a buffer (and a walker slot)
     holding a complete protection, even if a rollback lands between the
     protect stores of a checkpoint.  [hold] is the running traversal's
     [~hold]: whether its destination is checkpointed too.  [n_traverses],
     [n_steps] and [n_resumes] are owner-only tallies not yet folded into
     the domain's counters: a sharded-counter RMW per traversal costs a
     fenced call each, the fold one per [flush]. *)
  type handle = {
    d : domain;
    bh : B.handle;
    hh : H.handle;
    mutable tw : shield Smr_intf.walker;
    mutable bufs0 : shield array;
    mutable bufs1 : shield array;
    mutable comp : int;
    mutable hold : bool;
    section : unit -> int;
    mutable n_traverses : int;
    mutable n_steps : int;
    mutable n_resumes : int;
  }

  (* A checkpoint: publish the live cursor into the buffer that does not
     hold the last complete protection, then copy it into the matching
     walker slot.  Begin/end bracket the double-buffered protect stores —
     the window a neutralization signal can land inside (§4.3). *)
  let checkpoint h w =
    let nb = (h.comp + 1) land 1 in
    Trace.emit Trace.Checkpoint_begin nb;
    w.Smr_intf.protect (if nb = 0 then h.bufs0 else h.bufs1);
    w.save nb;
    h.comp <- h.comp + 1;
    Trace.emit Trace.Checkpoint nb

  (* Unlike HP-RCU there is no voluntary exit between checkpoints: the
     critical section walks until the destination, one checkpoint after
     every [backup_period] steps, relying on neutralization to bound it.
     A checkpoint exists to carry the cursor across sections, so the
     destination gets one only when the caller holds it past this one. *)
  let rec walk_section h w =
    let r = w.Smr_intf.walk h.d.backup_period in
    if r = Smr_intf.walk_more then begin
      checkpoint h w;
      walk_section h w
    end
    else begin
      if r = Smr_intf.walk_done && h.hold then checkpoint h w;
      r
    end

  (* One run of the critical section.  Until the first checkpoint
     completes there is nothing to resume from, and none is needed: the
     run builds the entry-point cursor afresh, whether it is the first run
     or a rollback's re-run — re-running [init] does all that a checkpoint
     of the entry cursor would.  That cursor needs no revalidation — it
     comes fresh from the entry point inside this very critical section
     (R1 holds trivially), and crucially this lets the traversal *step
     through* (and help unlink) a marked first node instead of failing
     before it can help, which would livelock every thread behind a
     marked entry node whose remover lost its unlink CAS.  Later re-runs
     resume from the last complete checkpoint. *)
  let section h () =
    h.n_resumes <- h.n_resumes + 1;
    let w = h.tw in
    if h.comp < 0 then begin
      w.init ();
      walk_section h w
    end
    (* Rollback resume: revalidate the checkpoint (R1 / §3.3). *)
    else if w.restore (h.comp land 1) then walk_section h w
    else begin
      Stats.Counter.incr h.d.tr_validate_fail;
      Smr_intf.walk_fail
    end

  let register d =
    Dom.on_register d.meta;
    let rec h =
      {
        d;
        bh = B.register d.bd;
        hh = H.register ~hop_ring:false d.hd;
        tw = Smr_intf.idle_walker ();
        bufs0 = [||];
        bufs1 = [||];
        comp = -1;
        hold = false;
        section = (fun () -> section h ());
        n_traverses = 0;
        n_steps = 0;
        n_resumes = 0;
      }
    in
    h

  (* Publish the handle's traversal tallies.  A fiber crashed mid-run
     never flushes, so its tallies go uncounted. *)
  let fold_tallies h =
    let d = h.d in
    Stats.Counter.add d.tr_traverses h.n_traverses;
    Stats.Counter.add d.tr_steps h.n_steps;
    Stats.Counter.add d.tr_resumes h.n_resumes;
    h.n_traverses <- 0;
    h.n_steps <- 0;
    h.n_resumes <- 0

  let unregister h =
    fold_tallies h;
    B.unregister h.bh;
    H.unregister h.hh;
    Dom.on_unregister h.d.meta

  let flush h =
    fold_tallies h;
    B.flush h.bh;
    H.flush h.hh

  let new_shield h = { hs = H.new_shield h.hh; sbh = h.bh }

  (* A shield store is a preemption and delivery point: the paper's
     signals are truly asynchronous and can abort a checkpoint between its
     two protect stores (possibly after a stall) — the torn-checkpoint
     case double buffering exists for. *)
  let protect s b =
    H.protect s.hs b;
    (* The extra preemption/delivery point only exists in the simulator,
       where interleaving fidelity is the product; in domain mode a shield
       store is just a store. *)
    if Sched.fiber_mode () then begin
      Sched.yield ();
      B.poll s.sbh
    end

  let clear s = H.clear s.hs

  (* A rollback unwinds to [crit], never past it: an operation needs no
     retry frame. *)
  let op _ body = body ()

  let crit h body = B.crit h.bh body
  let mask h body = B.mask h.bh body

  (* Coarse protection inside critical sections; the poll is the
     neutralization delivery point (a pending signal rolls the critical
     section back before this read can observe freed memory). *)
  let read h ~src ~hdr:_ cell =
    Sched.yield ();
    B.poll h.bh;
    Alloc.check_access src;
    Link.get cell

  let deref h blk =
    B.poll h.bh;
    Alloc.check_access blk

  (* Two-step retirement (Algorithm 4) through BRCU's Defer, intrusive. *)
  let retire h ?patch:_ ?(claimed = false) blk =
    if not claimed then Alloc.retire blk;
    Dom.tag_retire h.d.meta blk;
    B.defer h.bh blk;
    H.maybe_scan h.hh

  let recycles = false
  let patches = false
  let current_era _ = 0

  (* Traverse with double buffering (Algorithm 7). *)
  let traverse h ~hold ~prot ~backup w =
    if h.tw != w then h.tw <- w;
    if h.bufs0 != backup then h.bufs0 <- backup;
    if h.bufs1 != prot then h.bufs1 <- prot;
    h.comp <- -1;
    h.hold <- hold;
    (* The walker bumps [steps] per step; the difference is tallied once,
       when the critical section exits (by return, [walk_fail] or
       exception). *)
    let steps0 = w.steps in
    h.n_traverses <- h.n_traverses + 1;
    match B.crit h.bh h.section with
    | r ->
        h.n_steps <- h.n_steps + w.steps - steps0;
        r = Smr_intf.walk_done
    | exception e ->
        h.n_steps <- h.n_steps + w.steps - steps0;
        raise e

  let stats d =
    Dom.stamp_stats d.meta
      {
        (Stats.add (B.stats d.bd) (H.stats d.hd)) with
        traverses = Stats.Counter.value d.tr_traverses;
        traverse_steps = Stats.Counter.value d.tr_steps;
        traverse_resumes = Stats.Counter.value d.tr_resumes;
        validate_failures = Stats.Counter.value d.tr_validate_fail;
      }
end
