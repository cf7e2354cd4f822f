(** One hunt case: a (scheme, seed, params, fault plan, schedule) tuple
    executed under the controlled scheduler with every oracle armed
    (DESIGN.md §11).

    The execution runs the long-running-read body the chaos cell runs
    ({!Hpbrcu_workload.Longrun.Body}) — prefill to 50% occupancy before
    faults arm, readers sweep the whole key range while writers churn a
    hot region — under a virtual-tick deadline, with three additions:

    + the scheduler's branching decisions are delegated to a
      {!Schedule.spec} and recorded, so the exact interleaving is an
      input, not an accident of the seed;
    + the allocator runs in counting + poisoning mode, so violations
      convict instead of crash and freed memory is stamped;
    + after a clean run, a {e census} (physical cleanup, then a whole-range
      membership sweep, then a full scheme drain) closes the books:
      every allocated block must be abandoned, reclaimed or still present.

    A case is a pure function of its tuple: running it twice — including
    with the tracer on — produces identical outcomes and identical event
    logs.  The repro format ({!Repro}) and the shrinker ({!Shrink}) lean
    on that. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Rng = Hpbrcu_runtime.Rng
module Watchdog = Hpbrcu_runtime.Watchdog
module Trace = Hpbrcu_runtime.Trace
module Fault = Hpbrcu_runtime.Fault
module Signal = Hpbrcu_runtime.Signal
module Caps = Hpbrcu_core.Caps
module Schemes = Hpbrcu_schemes.Schemes
module Registry = Hpbrcu_schemes.Registry
module Matrix = Hpbrcu_workload.Matrix
module Chaos = Hpbrcu_workload.Chaos
module Longrun = Hpbrcu_workload.Longrun
module Ds = Hpbrcu_ds

type case = {
  scheme : string;  (** hunt-matrix name, possibly a mutant ("HP-BRCU!nomask") *)
  seed : int;
  p : Chaos.params;
  plan : Fault.plan;
  spec : Schedule.spec;  (** scheduling strategy, or a replayable prefix *)
}

type outcome = {
  findings : Oracle.finding list;
  terminated : bool;  (** finished inside the tick budget *)
  crashes : int;
  exhausted : bool;  (** a worker hit {!Registry.Exhausted} *)
  ticks : int;
  total_ops : int;
  peak : int;
  recording : Schedule.recording;
}

let failed o = o.findings <> []

let pp_outcome ppf (o : outcome) =
  Fmt.pf ppf "%s ops=%d ticks=%d peak=%d crashes=%d%s%s"
    (if o.findings = [] then "clean" else "FAIL")
    o.total_ops o.ticks o.peak o.crashes
    (if o.terminated then "" else " deadline")
    (if o.exhausted then " exhausted" else "");
  List.iter (fun f -> Fmt.pf ppf " [%a]" Oracle.pp f) o.findings

module Smr_intf = Hpbrcu_core.Smr_intf

(* The hunt's ds dispatch, following the chaos harness: the list the
   scheme runs ({!Matrix.list_for}) — the harris-herlihy-shavit list,
   whose multi-node marked chains are what make an aborted
   [retire_chain] observable, wherever the scheme can traverse
   optimistically.  Each case binds a FRESH
   domain of its scheme — or, under the "+shards" topology variant, one
   domain per shard of the sharded map — and hands the continuation a
   [teardown] that force-destroys it at census time, so cross-case state
   bleed is impossible by construction.  [sentinels] is the map's
   head-block count for the leak equation. *)
let with_map (module X : Smr_intf.SCHEME) ~config ~sharded
    (k :
      (module Ds.Ds_intf.MAP) ->
      sentinels:int ->
      teardown:(unit -> unit) ->
      subjects:Watchdog.subject list ->
      'a) : 'a =
  if sharded then begin
    let module M =
      Ds.Sharded_hashmap.As_map
        (X)
        (struct
          let config = config
          let shards = 4
          let buckets_per_shard = 8
          let label = "hunt"
        end)
    in
    Fun.protect ~finally:M.destroy_created (fun () ->
        k
          (module M : Ds.Ds_intf.MAP)
          ~sentinels:M.sentinels ~teardown:M.destroy_created ~subjects:[])
  end
  else
    Schemes.with_domain ~label:"hunt" ((module X), config) (fun (module D) ->
        let module S = D.S in
        (* A supervision subject over the case's domain, for the
           "+watchdog" variant: nudge/re-send only — recycling would
           invalidate the leak census's books mid-case. *)
        let module Sup = Smr_intf.Supervise (D.X) in
        let subjects =
          [ Sup.subject ~id:0 ~label:"hunt" ~current:(fun () -> D.it) () ]
        in
        let module B = (val Matrix.list_for S.caps) in
        k (module B (S)) ~sentinels:1 ~teardown:D.teardown ~subjects)

let plan_has_signal_faults (pl : Fault.plan) =
  List.exists
    (fun r ->
      match r.Fault.action with
      | Fault.Drop_signal | Fault.Delay_signal _ -> true
      | Fault.Stall _ | Fault.Crash | Fault.Exhaust_pool -> false)
    pl.Fault.rules

(** [run case] — execute [case].  With [~traced:true] the decoded event
    log of the whole run (prefill, workload, census) is returned for
    byte-identical replay checks. *)
let run ?(traced = false) (case : case) : outcome * Trace.record list =
  let spec = case.spec in
  let impl, config = Matrix.find_hunt_impl case.scheme in
  let (module X : Smr_intf.SCHEME) = impl in
  let sharded = Matrix.is_sharded case.scheme in
  let caps = X.caps config in
  let p = case.p in
  let nthreads = p.Chaos.readers + p.Chaos.writers in
  let bound = caps.Caps.bound ~nthreads in
  Alloc.reset ();
  Alloc.set_strict false;
  Alloc.set_poisoning true;
  if traced then Trace.enable ~sink:Trace.Spool ();
  let restore () =
    Alloc.set_poisoning false;
    Alloc.set_strict true;
    if traced then Trace.disable ()
  in
  match
    with_map (module X) ~config ~sharded (fun (module L : Ds.Ds_intf.MAP)
                                              ~sentinels ~teardown ~subjects ->
        (* The long-running-read prefill and op step, so a hunt case draws
           the same keys as the chaos cell with the same seed.  Prefill
           runs outside fiber mode: fault counters and schedule decisions
           must index the workload proper. *)
        let module C = Longrun.Body (L) in
        let t = L.create () in
        C.prefill ~key_range:p.Chaos.key_range ~seed:case.seed t;
        let ops = Array.make nthreads 0 in
        let deadline_hit = ref false in
        let exhausted = ref false in
        let end_tick = ref 0 in
        let workers_done = ref 0 in
        (* The "+watchdog" variant: one extra fiber walking the escalation
           ladder over the case's domain, with threshold/poll/deadlines
           fuzzed from the case seed.  Supervision must be invisible to
           every oracle — it may only accelerate reclamation. *)
        let watchdogged = Matrix.is_watchdog case.scheme && subjects <> [] in
        let wd =
          if not watchdogged then None
          else begin
            let wrng = Rng.create ~seed:(case.seed lxor 0x77a7c4) in
            let cfg =
              {
                (Watchdog.default_config ~threshold:(1 + Rng.int wrng 64)) with
                Watchdog.poll_every = 4 + Rng.int wrng 28;
                nudge_deadline = 1 + Rng.int wrng 3;
                resend_deadline = 1 + Rng.int wrng 3;
                quarantine_deadline = 1 + Rng.int wrng 3;
              }
            in
            Some (Watchdog.create ~seed:(case.seed lxor 0x5d0c) cfg subjects)
          end
        in
        Fault.install case.plan;
        Sched.set_tick_deadline p.Chaos.tick_budget;
        let worker tid =
          let s = L.session t in
          let rng = C.worker_rng ~seed:case.seed tid in
          let reader = tid < p.Chaos.readers in
          let budget = if reader then p.Chaos.reader_ops else p.Chaos.writer_ops in
          (try
             for _ = 1 to budget do
               C.step ~key_range:p.Chaos.key_range
                 ~hot_width:p.Chaos.hot_width t s rng ~reader;
               ops.(tid) <- ops.(tid) + 1
             done;
             L.close_session s
           with
          | Sched.Deadline -> deadline_hit := true
          | Registry.Exhausted _ -> exhausted := true);
          if Sched.tick () > !end_tick then end_tick := Sched.tick ();
          incr workers_done
        in
        let fiber tid =
          match wd with
          | Some w when tid = nthreads ->
              Watchdog.run w ~until:(fun () ->
                  !workers_done + Sched.crashed_count () >= nthreads)
          | _ -> worker tid
        in
        let total_fibers = nthreads + if wd = None then 0 else 1 in
        let (), recording =
          Schedule.with_spec ~seed:case.seed spec (fun () ->
              Sched.run
                (Sched.Fibers { seed = case.seed; switch_every = 1 })
                ~nthreads:total_fibers fiber)
        in
        Sched.clear_tick_deadline ();
        let crashes = Sched.crashed_count () in
        Fault.clear ();
        let terminated = not !deadline_hit in
        (* Quiescence audits, in gate order.  [undelivered_pending] must be
           read before the census creates fresh boxes. *)
        let pending =
          if terminated && crashes = 0 && not (plan_has_signal_faults case.plan)
          then Signal.undelivered_pending ()
          else 0
        in
        (* Census + drain: only meaningful (and only exact) for a clean
           terminating run — a crashed or deadline-aborted fiber may hold
           an in-flight node that is neither published nor discarded. *)
        let clean = terminated && crashes = 0 && not !exhausted in
        let present = ref 0 in
        let census_ok = ref false in
        if clean then begin
          (try
             let s = L.session t in
             L.cleanup t s;
             for k = 0 to p.Chaos.key_range - 1 do
               if L.get t s k then incr present
             done;
             L.close_session s;
             census_ok := true
           with _ -> census_ok := false);
          (* Destroying the case's domain(s) drains every retired queue —
             the books close before the stats read below.  The Fun.protect
             in [with_map] re-runs it harmlessly (idempotent). *)
          teardown ()
        end;
        let st = Alloc.stats () in
        let findings = ref [] in
        let add f = findings := f :: !findings in
        if st.Alloc.uaf > 0 then
          add (Oracle.Uaf { count = st.Alloc.uaf; poisoned = st.Alloc.poisoned_reads });
        if st.Alloc.double_retires > 0 then
          add (Oracle.Double_retire st.Alloc.double_retires);
        if st.Alloc.double_reclaims > 0 then
          add (Oracle.Double_reclaim st.Alloc.double_reclaims);
        (match bound with
        | Some b when st.Alloc.peak_unreclaimed > b ->
            add (Oracle.Bound_exceeded { peak = st.Alloc.peak_unreclaimed; bound = b })
        | _ -> ());
        if clean && !census_ok && not X.recycles then begin
          (* allocated = abandoned + reclaimed + present (+ the map's head
             sentinels: 1 for a plain list, shards×buckets for the sharded
             map); any slack is a block stranded Live-but-unreachable. *)
          let lost =
            st.Alloc.allocated - st.Alloc.abandoned - st.Alloc.reclaimed
            - (!present + sentinels)
          in
          if lost > 0 then add (Oracle.Leak { lost })
        end;
        if pending > 0 then add (Oracle.Lost_signal { pending });
        {
          findings = List.rev !findings;
          terminated;
          crashes;
          exhausted = !exhausted;
          ticks = !end_tick;
          total_ops = Array.fold_left ( + ) 0 ops;
          peak = st.Alloc.peak_unreclaimed;
          recording;
        })
  with
  | outcome ->
      let log = if traced then Trace.dump () else [] in
      restore ();
      (outcome, log)
  | exception e ->
      Sched.clear_tick_deadline ();
      Sched.clear_chooser ();
      Fault.clear ();
      restore ();
      raise e

(** [pin case outcome] — the same case with its schedule frozen to what
    the run actually did: strategy state is gone, only the decisions
    remain.  Identity on overflowed recordings (an incomplete prefix
    would diverge where the recording was cut). *)
let pin (case : case) (o : outcome) : case =
  if o.recording.Schedule.overflowed then case
  else { case with spec = Schedule.Replay (Schedule.prefix_of o.recording) }
