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
    intrusively, the deferred {!Hpbrcu_core.Retired.entry} flows from the
    BRCU side's task list into the HP side's orphan list — giving the
    bound of §5: at most [2GN + GN² + H] unreclaimed blocks with
    [G = max_local_tasks × force_threshold], [N] threads and [H] shields.

    Both halves share one {!Smr_intf.Dom.t}; shields close over the BRCU
    domain so the simulator's checkpoint delivery point can poll the
    owning domain's pending signals.  The paper's ablation mutants
    (no-masking, no-double-buffering) are no longer separate functors:
    they are just domains created from configs with [abort_masking] or
    [double_buffering] off. *)

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
    (* Traversal diagnostics (reported via [stats]). *)
    tr_steps : Stats.Counter.t;
    tr_validate_fail : Stats.Counter.t;
    tr_traverses : Stats.Counter.t;
    tr_resumes : Stats.Counter.t;
    double_buffering : bool;
    backup_period : int;
  }

  let create ?label config =
    let meta = Dom.make ~scheme ?label config in
    let hd = H.create meta in
    {
      meta;
      hd;
      (* Two-step retirement's second step: expired deferrals land in the
         HP half, still subject to the shield scan. *)
      bd = B.create ~execute:(H.retire_deferred_entry hd) meta;
      tr_steps = Stats.Counter.make ();
      tr_validate_fail = Stats.Counter.make ();
      tr_traverses = Stats.Counter.make ();
      tr_resumes = Stats.Counter.make ();
      double_buffering = config.Config.double_buffering;
      backup_period = config.Config.backup_period;
    }

  let dom d = d.meta

  let destroy ?force d =
    Dom.begin_destroy ?force d.meta;
    begin
      B.drain d.bd;
      H.drain d.hd;
      Dom.finish_destroy d.meta
    end

  type handle = { d : domain; bh : B.handle; hh : H.handle }

  let register d =
    Dom.on_register d.meta;
    { d; bh = B.register d.bd; hh = H.register d.hd }

  let unregister h =
    B.unregister h.bh;
    H.unregister h.hh;
    Dom.on_unregister h.d.meta

  let flush h =
    B.flush h.bh;
    H.flush h.hh

  (* The nudge rung: force stranded TASKS through even though the
     supervisor's transient handle has an empty batch of its own. *)
  let expedite h =
    B.expedite h.bh;
    H.flush h.hh

  (* The HP slot plus the BRCU domain: the checkpoint delivery point must
     poll the owning domain's pending signals, not some global. *)
  type shield = { hs : H.shield; sbd : B.domain }

  let new_shield h = { hs = H.new_shield h.hh; sbd = h.d.bd }

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
      B.poll_self s.sbd
    end

  let clear s = H.clear s.hs

  exception Restart

  let op _ body =
    let rec go () = try body () with Restart -> go () in
    go ()

  let crit h body = B.crit h.bh body
  let mask h body = B.mask h.bh body

  (* Coarse protection inside critical sections; the poll is the
     neutralization delivery point (a pending signal rolls the critical
     section back before this read can observe freed memory). *)
  let read h _s ?src ~hdr:_ cell =
    Sched.yield ();
    B.poll h.bh;
    Option.iter Alloc.check_access src;
    Link.get cell

  let deref h blk =
    B.poll h.bh;
    Alloc.check_access blk

  (* Two-step retirement (Algorithm 4) through BRCU's Defer, intrusive. *)
  let retire h ?free ?patch:_ ?(claimed = false) blk =
    if not claimed then Alloc.retire blk;
    Dom.tag_retire h.d.meta blk;
    B.defer h.bh ?free blk;
    H.maybe_scan h.hh

  let recycles = false
  let current_era _ = 0

  (* Traverse with double buffering (Algorithm 7).  Unlike HP-RCU there is
     no voluntary exit between checkpoints: the critical section runs until
     Finish, relying on neutralization to bound it.  [comp] always indexes
     a buffer holding a complete protection, even if a rollback lands
     between the two protect stores of a checkpoint. *)
  let traverse h ~prot ~backup ~protect ~validate ~init ~step =
    (* Ablation hook: without double buffering both checkpoint slots are
       the same protector, so a rollback landing mid-checkpoint can leave
       no complete protection (§4.3). *)
    let backup = if h.d.double_buffering then backup else prot in
    let bufs = [| backup; prot |] in
    let curs = [| None; None |] in
    let comp = ref 0 in
    (* [started] flips once the entry-point cursor exists.  The first
       entry needs no revalidation — the cursor comes fresh from the entry
       point inside this very critical section (R1 holds trivially), and
       crucially this lets the traversal *step through* (and help unlink) a
       marked first node instead of failing before it can help, which
       would livelock every thread behind a marked entry node whose
       remover lost its unlink CAS. *)
    let started = ref false in
    let backup_period = h.d.backup_period in
    Stats.Counter.incr h.d.tr_traverses;
    let outcome =
      B.crit h.bh (fun () ->
          Stats.Counter.incr h.d.tr_resumes;
          let resume =
            if not !started then begin
              let s = init () in
              protect bufs.(0) s;
              curs.(0) <- Some s;
              comp := 0;
              started := true;
              Some s
            end
            else begin
              (* Rollback resume: revalidate the checkpoint (R1 / §3.3). *)
              let c = Option.get curs.(!comp mod 2) in
              if validate c then Some c
              else begin
                Stats.Counter.incr h.d.tr_validate_fail;
                None
              end
            end
          in
          match resume with
          | None -> `Fail
          | Some c0 ->
            let cur = ref c0 in
            begin
            let checkpoint () =
              let nb = (!comp + 1) mod 2 in
              (* Begin/end bracket the double-buffered protect stores — the
                 window a neutralization signal can land inside (§4.3). *)
              Trace.emit Trace.Checkpoint_begin nb;
              protect bufs.(nb) !cur;
              curs.(nb) <- Some !cur;
              incr comp;
              Trace.emit Trace.Checkpoint nb
            in
            let rec go i =
              Stats.Counter.incr h.d.tr_steps;
              match step !cur with
              | Smr_intf.Finish (c, r) ->
                  cur := c;
                  checkpoint ();
                  `Done r
              | Smr_intf.Continue c ->
                  cur := c;
                  if i mod backup_period = 0 then checkpoint ();
                  go (i + 1)
              | Smr_intf.Fail -> `Fail
            in
            go 1
          end)
    in
    ignore (started : bool ref);
    match outcome with
    | `Done r -> Some (Option.get curs.(!comp mod 2), bufs.(!comp mod 2), r)
    | `Fail -> None

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
