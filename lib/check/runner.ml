(** One hunt case: a (scheme, seed, params, fault plan, schedule) tuple
    executed under the controlled scheduler with every oracle armed
    (DESIGN.md §11).

    A case is the chaos cell ({!Hpbrcu_workload.Chaos.with_params}, the
    long-running-read cell {!Hpbrcu_workload.Longrun.cell} under op
    budgets: prefill to 50% occupancy before faults arm, readers sweep
    the whole key range while writers churn a hot region, a plan's crash
    victims loop until they crash, a virtual-tick deadline), over the
    list its scheme runs or, for a "+shards" entry, chaos's [Isolated]
    sharded map, with the scheduler switching at every yield.  The runner
    builds no map of its own; it adds three things:

    + the scheduler's branching decisions are delegated to a
      {!Schedule.spec} and recorded, so the exact interleaving is an
      input, not an accident of the seed;
    + the allocator runs in counting + poisoning mode, so violations
      convict instead of crash and freed memory is stamped;
    + after a clean run, a {e census} (physical cleanup, then a whole-range
      membership sweep, then a full scheme drain) closes the books:
      every allocated block must be abandoned, reclaimed or still present.

    The books are then judged by the verdict chaos uses
    ({!Hpbrcu_workload.Oracle.judge}), plus the hunt's leak and
    lost-signal oracles.  A case is a pure function of its tuple: running
    it twice — including with the tracer on — produces identical
    outcomes and identical event logs.  The repro format ({!Repro}) and
    the shrinker ({!Shrink}) lean on that. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Trace = Hpbrcu_runtime.Trace
module Fault = Hpbrcu_runtime.Fault
module Signal = Hpbrcu_runtime.Signal
module Caps = Hpbrcu_core.Caps
module Matrix = Hpbrcu_workload.Matrix
module Chaos = Hpbrcu_workload.Chaos
module Longrun = Hpbrcu_workload.Longrun
module Oracle = Hpbrcu_workload.Oracle
module Cell_runner = Hpbrcu_workload.Cell_runner

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
  exhausted : bool;  (** a worker ran a slot registry out *)
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

let plan_has_signal_faults (pl : Fault.plan) =
  List.exists
    (fun r ->
      match r.Fault.action with
      | Fault.Drop_signal | Fault.Delay_signal _ -> true
      | Fault.Stall _ | Fault.Crash | Fault.Exhaust_pool -> false)
    pl.Fault.rules

(* After a clean run, the quiescence audits in gate order, then the shared
   verdict over the books as the census left them, plus the hunt's own
   two oracles.  [undelivered_pending] must be read before the census
   creates fresh boxes.  The census and drain are only meaningful (and
   only exact) for a clean terminating run: a crashed or deadline-aborted
   fiber may hold an in-flight node that is neither published nor
   discarded. *)
let audit (case : case) ~bound ~recycles (b : Longrun.books)
    (module M : Longrun.LIVE) =
  let r = b.Longrun.run in
  let terminated = not r.Cell_runner.deadline_hit in
  let crashes = r.Cell_runner.crashes in
  let pending =
    if terminated && crashes = 0 && not (plan_has_signal_faults case.plan)
    then Signal.undelivered_pending ()
    else 0
  in
  let clean = terminated && crashes = 0 && not r.Cell_runner.exhausted in
  let present = ref 0 in
  let census_ok = ref false in
  if clean then begin
    (try
       let s = M.session M.it in
       M.cleanup M.it s;
       for k = 0 to case.p.Chaos.key_range - 1 do
         if M.get M.it s k then incr present
       done;
       M.close_session s;
       census_ok := true
     with _ -> census_ok := false)
  end;
  let dom_peaks = M.dom_peaks () in
  (* Destroying the case's domain(s) drains every retired queue, so the
     books close before the stats read below; the cell's own teardown
     re-runs it harmlessly. *)
  if clean then M.teardown ();
  let b = { b with Longrun.alloc = Alloc.stats (); dom_peaks } in
  let st = b.Longrun.alloc in
  (* allocated = abandoned + reclaimed + present (+ the map's list-head
     sentinels); any slack is a block stranded Live-but-unreachable. *)
  let lost =
    st.Alloc.allocated - st.Alloc.abandoned - st.Alloc.reclaimed
    - (!present + M.sentinels)
  in
  ( Oracle.judge ~bound b
    @ (if clean && !census_ok && (not recycles) && lost > 0 then
         [ Oracle.Leak { lost } ]
       else [])
    @ (if pending > 0 then [ Oracle.Lost_signal { pending } ] else []),
    b )

(** [run case] — execute [case].  With [~traced:true] the decoded event
    log of the whole run (prefill, workload, census) is returned for
    byte-identical replay checks. *)
let run ?(traced = false) (case : case) : outcome * Trace.record list =
  let ((module X : Hpbrcu_core.Smr_intf.SCHEME), config) as impl =
    Matrix.find_hunt_impl case.scheme
  in
  let p = case.p in
  let bound =
    (X.caps config).Caps.bound ~nthreads:(p.Chaos.readers + p.Chaos.writers)
  in
  let mode = Sched.Fibers { seed = case.seed; switch_every = 1 } in
  Alloc.set_poisoning true;
  if traced then Trace.enable ~sink:(fst (Cell_runner.trace_sink mode)) ();
  let restore () =
    Alloc.set_poisoning false;
    Alloc.set_strict true;
    if traced then Trace.disable ()
  in
  match
    Schedule.with_spec ~seed:case.seed case.spec (fun () ->
        Chaos.with_params ~mode ~impl
          ~topology:
            (if String.ends_with ~suffix:"+shards" case.scheme then
               Chaos.Isolated
             else Chaos.One)
          ~plan:case.plan ~seed:case.seed p
          (audit case ~bound ~recycles:X.recycles))
  with
  | (findings, b), recording ->
      let log = if traced then Trace.dump () else [] in
      restore ();
      let r = b.Longrun.run in
      ( {
          findings;
          terminated = not r.Cell_runner.deadline_hit;
          crashes = r.Cell_runner.crashes;
          exhausted = r.Cell_runner.exhausted;
          ticks = r.Cell_runner.ticks;
          total_ops = Array.fold_left ( + ) 0 r.Cell_runner.ops;
          peak = b.Longrun.alloc.Alloc.peak_unreclaimed;
          recording;
        },
        log )
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
