(** One hunt case: a (scheme, seed, params, fault plan, schedule) tuple
    executed under the controlled scheduler with every oracle armed
    (DESIGN.md §11).

    The workers run the chaos cell's drive
    ({!Hpbrcu_workload.Chaos.Runner.drive}: the long-running-read body
    over the cell engine — prefill to 50% occupancy before faults arm,
    readers sweep the whole key range while writers churn a hot region,
    op budgets, a plan's crash victims looping until they crash, a
    virtual-tick deadline), with the scheduler switching at every
    yield.  The hunt adds three things:

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
module Trace = Hpbrcu_runtime.Trace
module Fault = Hpbrcu_runtime.Fault
module Signal = Hpbrcu_runtime.Signal
module Caps = Hpbrcu_core.Caps
module Registry = Hpbrcu_schemes.Registry
module Matrix = Hpbrcu_workload.Matrix
module Chaos = Hpbrcu_workload.Chaos
module Cell_runner = Hpbrcu_workload.Cell_runner
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
          ~sentinels:M.sentinels ~teardown:M.destroy_created)
  end
  else
    Matrix.with_list ~label:"hunt" ((module X), config) (fun (module L) (module D) ->
        k (module L) ~sentinels:1 ~teardown:D.teardown)

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
  let mode = Sched.Fibers { seed = case.seed; switch_every = 1 } in
  Alloc.reset ();
  Alloc.set_strict false;
  Alloc.set_poisoning true;
  if traced then Trace.enable ~sink:(fst (Cell_runner.trace_sink mode)) ();
  let restore () =
    Alloc.set_poisoning false;
    Alloc.set_strict true;
    if traced then Trace.disable ()
  in
  match
    with_map (module X) ~config ~sharded (fun (module L : Ds.Ds_intf.MAP)
                                              ~sentinels ~teardown ->
        (* The chaos cell's drive: the long-running-read prefill (outside
           fiber mode, so fault counters and schedule decisions index the
           workload proper) and op step, so a hunt case draws the same
           keys as the chaos cell with the same seed. *)
        let module R = Chaos.Runner (L) in
        let t = L.create () in
        let r, recording =
          Schedule.with_spec ~seed:case.seed spec (fun () ->
              R.drive ~mode ~plan:case.plan ~seed:case.seed p t)
        in
        let crashes = r.Cell_runner.crashes in
        let terminated = not r.Cell_runner.deadline_hit in
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
        let clean = terminated && crashes = 0 && not r.Cell_runner.exhausted in
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
          exhausted = r.Cell_runner.exhausted;
          ticks = r.Cell_runner.ticks;
          total_ops = Array.fold_left ( + ) 0 r.Cell_runner.ops;
          peak = st.Alloc.peak_unreclaimed;
          recording;
        })
  with
  | outcome ->
      let log = if traced then Trace.dump () else [] in
      restore ();
      (outcome, log)
  | exception e ->
      restore ();
      raise e

(** [pin case outcome] — the same case with its schedule frozen to what
    the run actually did: strategy state is gone, only the decisions
    remain.  Identity on overflowed recordings (an incomplete prefix
    would diverge where the recording was cut). *)
let pin (case : case) (o : outcome) : case =
  if o.recording.Schedule.overflowed then case
  else { case with spec = Schedule.Replay (Schedule.prefix_of o.recording) }
