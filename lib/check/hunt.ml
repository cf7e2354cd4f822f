(** The hunt driver (DESIGN.md §11): systematic schedule/fault exploration
    over the scheme matrix.

    Three search strategies over {!Runner} cases:

    - [`Rand] — uniform random scheduling, fresh seed and fuzzed fault
      plan per case: the volume baseline.
    - [`Pct] — PCT priority schedules (see {!Schedule.Pct}), same
      case-indexed fuzzing: fewer, more adversarial interleavings.
    - [`Dfs] — bounded exhaustive DFS over the first [depth] branching
      decisions, fault-free, for tiny configurations (2–3 fibers): the
      odometer ({!Schedule.next_dfs_prefix}) walks every schedule prefix
      in the bound, the seeded random tail extends each into a full run.

    Everything is case-indexed and seeded: case [i] of a hunt with seed
    [s] is the same case forever.  A finding is immediately re-run pinned
    to its recording, shrunk ({!Shrink}), and packaged as a replayable
    artifact ({!Repro}); the hunt stops at the first finding — a second
    finding is cheaper to reach by re-running with the next seed than to
    wait for behind a shrink.

    The mutation-testing gate ({!Matrix.mutant_names}): a hunt pointed at
    a planted bug ("HP-BRCU!nomask") must convict it within the smoke
    budget, and the same budget pointed at every real scheme must stay
    silent.  [check.sh] runs exactly that. *)

module Rng = Hpbrcu_runtime.Rng
module Fault = Hpbrcu_runtime.Fault
module Chaos = Hpbrcu_workload.Chaos
module Matrix = Hpbrcu_workload.Matrix

type strategy = [ `Rand | `Pct | `Dfs ]

let strategy_to_string = function `Rand -> "rand" | `Pct -> "pct" | `Dfs -> "dfs"

(* Workload sized so one case runs in tens of milliseconds while still
   cycling the hunt-tuned schemes through many flush/advance/neutralize
   rounds: a small hot region under two writers keeps multi-node marked
   chains (the shape an aborted deletion strands) forming constantly. *)
let default_params =
  {
    Chaos.key_range = 64;
    hot_width = 4;
    readers = 1;
    writers = 3;
    reader_ops = 20;
    writer_ops = 300;
    tick_budget = 2_000_000;
  }

(* Tiny configuration for bounded-exhaustive DFS: every branching decision
   in the bound is explored, so the fiber count and op budgets must keep
   the decision space shallow. *)
let dfs_params =
  {
    Chaos.key_range = 16;
    hot_width = 4;
    readers = 1;
    writers = 1;
    reader_ops = 4;
    writer_ops = 12;
    tick_budget = 400_000;
  }

type config = {
  scheme : string;
  strategy : strategy;
  seed : int;
  runs : int;  (** case budget for the search (shrinking has its own) *)
  p : Chaos.params;
  faults : bool;  (** fuzz fault plans alongside schedules *)
  dfs_depth : int;  (** branching decisions pinned exhaustively under [`Dfs] *)
  shrink_budget : int;
  log : string -> unit;  (** progress sink ([ignore] for silence) *)
}

let default_config ~scheme ~strategy ~seed ~runs =
  {
    scheme;
    strategy;
    seed;
    runs;
    p = (if strategy = `Dfs then dfs_params else default_params);
    faults = strategy <> `Dfs;
    dfs_depth = 14;
    shrink_budget = 150;
    log = ignore;
  }

type finding_report = {
  case : Runner.case;  (** as found (schedule pinned) *)
  outcome : Runner.outcome;
  shrunk : Shrink.result;
  repro : Repro.t;  (** the shrunk case, packaged *)
}

type report = {
  scheme : string;
  strategy : strategy;
  seed : int;
  cases_run : int;
  finding : finding_report option;  (** [None] = the budget stayed silent *)
}

let clean r = r.finding = None

(* ------------------------------------------------------------------ *)
(* Fault-plan fuzzer                                                   *)
(* ------------------------------------------------------------------ *)

(* Seeded, case-indexed plan generation.  Half the cases run fault-free
   (pure schedule exploration keeps the leak and lost-signal oracles —
   which crash rules gate off — armed); the rest get 1-2 rules drawn
   jointly with the case's schedule seed, so "mutate the plan" and
   "mutate the schedule" are the same move in seed space. *)
let gen_plan rng ~nthreads ~idx : Fault.plan =
  if Rng.bool rng then Fault.no_faults
  else begin
    let nrules = 1 + Rng.int rng 2 in
    let rule _ =
      let tid = if Rng.bool rng then -1 else Rng.int rng nthreads in
      let start = Rng.int rng 3000 in
      let period = if Rng.bool rng then 0 else 1 + Rng.int rng 997 in
      match Rng.int rng 6 with
      | 0 | 1 ->
          { Fault.site = Yield; tid; start; period; action = Stall (1 + Rng.int rng 1500) }
      | 2 ->
          (* Crashes only ever fire once, whatever the period says. *)
          { Fault.site = Yield; tid; start; period = 0; action = Crash }
      | 3 -> { Fault.site = Signal_send; tid; start; period; action = Drop_signal }
      | 4 ->
          {
            Fault.site = Signal_send;
            tid;
            start;
            period;
            action = Delay_signal (1 + Rng.int rng 500);
          }
      | _ -> { Fault.site = Pool_acquire; tid; start; period; action = Exhaust_pool }
    in
    { Fault.label = "fuzz-" ^ string_of_int idx; rules = List.init nrules rule }
  end

(* ------------------------------------------------------------------ *)
(* Search loops                                                        *)
(* ------------------------------------------------------------------ *)

let package (case : Runner.case) (outcome : Runner.outcome) cfg : finding_report
    =
  cfg.log
    (Fmt.str "finding in %s: %a — shrinking (budget %d runs)" case.Runner.scheme
       Runner.pp_outcome outcome cfg.shrink_budget);
  let shrunk = Shrink.shrink ~budget:cfg.shrink_budget case outcome in
  let finding =
    match shrunk.Shrink.outcome.Runner.findings with
    | f :: _ -> f
    | [] -> assert false
  in
  {
    case;
    outcome;
    shrunk;
    repro = { Repro.case = shrunk.Shrink.case; finding };
  }

let randomized cfg : report =
  let nthreads = cfg.p.Chaos.readers + cfg.p.Chaos.writers in
  let finding = ref None in
  let i = ref 0 in
  while !finding = None && !i < cfg.runs do
    let idx = !i in
    (* A large odd stride decorrelates neighbouring cases' RNG streams. *)
    let case_seed = cfg.seed + (idx * 7919) in
    let rng = Rng.create ~seed:(case_seed lxor 0xfa57) in
    let plan =
      if cfg.faults then gen_plan rng ~nthreads ~idx else Fault.no_faults
    in
    let spec =
      match cfg.strategy with
      | `Pct -> Schedule.Pct { change_period = 100 + Rng.int rng 400 }
      | _ -> Schedule.Rand
    in
    let case =
      { Runner.scheme = cfg.scheme; seed = case_seed; p = cfg.p; plan; spec }
    in
    let outcome, _ = Runner.run case in
    if idx mod 25 = 24 then
      cfg.log (Fmt.str "%s: %d/%d cases clean" cfg.scheme (idx + 1) cfg.runs);
    if Runner.failed outcome then
      finding := Some (package (Runner.pin case outcome) outcome cfg);
    incr i
  done;
  {
    scheme = cfg.scheme;
    strategy = cfg.strategy;
    seed = cfg.seed;
    cases_run = !i;
    finding = !finding;
  }

let dfs cfg : report =
  let finding = ref None in
  let i = ref 0 in
  let prefix = ref (Some [||]) in
  while !finding = None && !i < cfg.runs && !prefix <> None do
    let pf = Option.get !prefix in
    let case =
      {
        Runner.scheme = cfg.scheme;
        seed = cfg.seed;
        p = cfg.p;
        plan = Fault.no_faults;
        spec = Schedule.Replay pf;
      }
    in
    let outcome, _ = Runner.run case in
    if Runner.failed outcome then
      finding := Some (package (Runner.pin case outcome) outcome cfg)
    else
      prefix :=
        Schedule.next_dfs_prefix ~depth:cfg.dfs_depth
          outcome.Runner.recording pf;
    incr i;
    if !i mod 50 = 0 then
      cfg.log (Fmt.str "%s: dfs %d/%d prefixes clean" cfg.scheme !i cfg.runs)
  done;
  if !prefix = None then
    cfg.log
      (Fmt.str "%s: dfs exhausted the depth-%d subtree after %d runs"
         cfg.scheme cfg.dfs_depth !i);
  {
    scheme = cfg.scheme;
    strategy = cfg.strategy;
    seed = cfg.seed;
    cases_run = !i;
    finding = !finding;
  }

(** [run cfg] — hunt one scheme (or mutant) under one strategy. *)
let run (cfg : config) : report =
  match cfg.strategy with `Dfs -> dfs cfg | `Rand | `Pct -> randomized cfg

let pp_report ppf (r : report) =
  match r.finding with
  | None ->
      Fmt.pf ppf "%s/%s seed=%d: %d cases, no findings" r.scheme
        (strategy_to_string r.strategy)
        r.seed r.cases_run
  | Some f ->
      Fmt.pf ppf
        "%s/%s seed=%d: FINDING after %d cases: %a@\n  shrunk in %d runs to: %a"
        r.scheme
        (strategy_to_string r.strategy)
        r.seed r.cases_run Runner.pp_outcome f.outcome f.shrunk.Shrink.runs
        Runner.pp_outcome f.shrunk.Shrink.outcome
