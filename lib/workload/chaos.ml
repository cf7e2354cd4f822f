(** Chaos harness: the scheme matrix under fault plans, on either
    substrate.

    The paper's robustness story (Table 2, Figure 1) is qualitative: EBR
    collapses when a reader stalls, HP-family schemes do not.  This module
    makes the claim executable and {e adversarial}: every scheme runs the
    long-running-read workload under a grid of {!Hpbrcu_runtime.Fault}
    plans — stall storms, a stalled or crashed reader, lost and late
    signal deliveries, allocator-pool exhaustion.

    The workers run through the cell engine ({!Cell_runner.Make.drive})
    over the long-running-read body ({!Longrun.Body}); this module adds
    the fault plans, the census and the {!cell} record, and one
    {!run_one}, one {!run_grid}, one {!check_cell} and one report,
    parameterised by a [[ `Fibers | `Domains ]] substrate and a
    {!topology}: the one-domain list, or the sharded hash map with one
    domain per shard ([Isolated]) or every shard in one domain ([Shared]),
    whose pair of crashed-reader cells the {!isolation} verdict reads.
    Every cell, on either substrate, must satisfy the same invariants:
    termination within its budget, no registry exhaustion, zero
    use-after-free, every domain's peak unreclaimed within the scheme's
    declared {!Hpbrcu_core.Caps.t.bound} (schemes declaring [None] are
    exempt: unboundedness under stalls is their documented failure mode,
    and the {!discriminator} asserts it actually shows), the exact
    allocator census (and the flight recorder's, when a domains cell is
    traced), and exactly the planned number of crashes.

    The engine gives a crash victim of the plan no op budget, so it
    loops until its crash rule fires, on both substrates, and every
    survivor first waits for each victim to be down
    ({!Hpbrcu_runtime.Sched.await_crash_victims}, a no-op on fibers,
    where the crash fires at a fixed schedule point).  The substrates fork
    in three places only:

    + the scheduler and deadline — the deterministic fiber simulator
      under a virtual-tick budget, or real [Domain.spawn] workers under
      {!Cell_runner.wall_budget_s}, where a crashed reader is a worker
      parked forever while pinned ({!Hpbrcu_runtime.Fault.crash_park});
    + the stamp and the trace sink ({!Cell_runner.trace_sink}) — a fiber
      cell records its last virtual tick and traces in ticks, a domains
      cell its elapsed wall-clock ns and traces in hardware ns;
    + the verdict policy ({!discriminator}) — on fibers, RCU's
      crashed-reader peak must exceed 10× its fault-free peak and the
      traced replay probes must reproduce byte-identical event logs
      (faults are counter-indexed, so a fiber cell is a pure function of
      [(scheme, plan, seed)]); on domains, RCU's crashed-reader peak must
      exceed HP-BRCU's by a threshold, gated only on >= 2 cores. *)

module Alloc = Hpbrcu_alloc.Alloc
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
module Fault = Hpbrcu_runtime.Fault
module Backend = Hpbrcu_runtime.Backend
module Schemes = Hpbrcu_schemes.Schemes
module Caps = Hpbrcu_core.Caps
module Dom = Hpbrcu_core.Smr_intf.Dom
module Ds = Hpbrcu_ds
module Json = Report.Json

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

type params = {
  key_range : int;
  hot_width : int;  (** writers churn keys in [0, hot_width) *)
  readers : int;
  writers : int;
  reader_ops : int;  (** whole-range [get]s per reader *)
  writer_ops : int;  (** hot-region insert/removes per writer *)
  tick_budget : int;  (** virtual-tick deadline; exceeding it is a
                          termination violation *)
}

let quick =
  {
    key_range = 512;
    hot_width = 48;
    readers = 2;
    writers = 2;
    reader_ops = 40;
    writer_ops = 6000;
    tick_budget = 8_000_000;
  }

let full =
  {
    quick with
    key_range = 1024;
    reader_ops = 120;
    writer_ops = 16000;
    tick_budget = 24_000_000;
  }

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

type plan_id =
  | Baseline  (** no faults: the denominator for the discriminator *)
  | Stall_storm  (** every thread periodically stalls mid-operation *)
  | Crash_reader  (** reader 0 dies early, likely inside a critical section *)
  | Crash_many  (** one reader and one writer die *)
  | Signal_chaos  (** periodic dropped and delayed signal deliveries *)
  | Pool_squeeze  (** recycling pool misses + background stalls *)
  | Stall_reader
      (** reader 0 stalls once, long, likely inside a critical section,
          then resumes: the garbage-over-time balloon and its drain *)

let all_plans =
  [
    Baseline;
    Stall_storm;
    Crash_reader;
    Crash_many;
    Signal_chaos;
    Pool_squeeze;
    Stall_reader;
  ]

let plan_name = function
  | Baseline -> "baseline"
  | Stall_storm -> "stall-storm"
  | Crash_reader -> "crash-reader"
  | Crash_many -> "crash-many"
  | Signal_chaos -> "signal-chaos"
  | Pool_squeeze -> "pool-squeeze"
  | Stall_reader -> "stall-reader"

let plan_of_name = function
  | "baseline" -> Baseline
  | "stall-storm" -> Stall_storm
  | "crash-reader" -> Crash_reader
  | "crash-many" -> Crash_many
  | "signal-chaos" -> Signal_chaos
  | "pool-squeeze" -> Pool_squeeze
  | "stall-reader" -> Stall_reader
  | s -> invalid_arg ("unknown fault plan: " ^ s)

(* Readers are tids [0, readers); writers [readers, readers+writers). *)
let plan_of (p : params) = function
  | Baseline -> Fault.no_faults
  | Stall_storm ->
      {
        Fault.label = "stall-storm";
        rules =
          [
            {
              Fault.site = Yield;
              tid = -1;
              start = 400;
              period = 701;
              action = Stall 3000;
            };
          ];
      }
  | Crash_reader ->
      {
        Fault.label = "crash-reader";
        rules =
          [
            { Fault.site = Yield; tid = 0; start = 800; period = 0; action = Crash };
          ];
      }
  | Crash_many ->
      {
        Fault.label = "crash-many";
        rules =
          [
            { Fault.site = Yield; tid = 0; start = 800; period = 0; action = Crash };
            {
              Fault.site = Yield;
              tid = p.readers;
              start = 2500;
              period = 0;
              action = Crash;
            };
          ];
      }
  | Signal_chaos ->
      {
        Fault.label = "signal-chaos";
        rules =
          [
            {
              Fault.site = Signal_send;
              tid = -1;
              start = 2;
              period = 5;
              action = Drop_signal;
            };
            {
              Fault.site = Signal_send;
              tid = -1;
              start = 4;
              period = 7;
              action = Delay_signal 300;
            };
          ];
      }
  | Pool_squeeze ->
      {
        Fault.label = "pool-squeeze";
        rules =
          [
            {
              Fault.site = Pool_acquire;
              tid = -1;
              start = 0;
              period = 2;
              action = Exhaust_pool;
            };
            {
              Fault.site = Yield;
              tid = -1;
              start = 1000;
              period = 997;
              action = Stall 500;
            };
          ];
      }
  | Stall_reader ->
      {
        Fault.label = "stall-reader";
        rules =
          [
            {
              Fault.site = Yield;
              tid = 0;
              start = 800;
              period = 0;
              action = Stall 10_000;
            };
          ];
      }

(* Signal-chaos cells pay a bounded-wait timeout per dropped delivery, so
   they run with a reduced write budget to stay inside CI time; the bound
   invariant is per-scheme and does not depend on op count. *)
let effective_params p = function
  | Signal_chaos -> { p with writer_ops = max 300 (p.writer_ops / 8) }
  | _ -> p

(* ------------------------------------------------------------------ *)
(* One cell                                                            *)
(* ------------------------------------------------------------------ *)

type substrate = [ `Fibers | `Domains ]

(** What the cell's map is, and how many reclamation domains it spans. *)
type topology =
  | One  (** the list {!Matrix.list_for} picks, in one domain *)
  | Isolated
      (** {!Ds.Sharded_hashmap}, {!shards} × {!buckets_per_shard}, one
          domain per shard *)
  | Shared  (** the same sharded map, every shard in one domain *)

let shards = 4
let buckets_per_shard = 16

type cell = {
  scheme : string;
  plan : string;
  seed : int;
  topology : topology;
  terminated : bool;  (** finished inside the tick (fibers) or wall budget *)
  exhausted : bool;  (** a worker ran a slot registry out *)
  ticks : int;  (** last virtual tick observed by a finishing worker (fibers) *)
  wall_ns : int;  (** elapsed wall time (domains) *)
  total_ops : int;
  peak : int;  (** peak unreclaimed blocks over the measured window *)
  dom_peaks : int array;
      (** the same peak per distinct domain, in shard order ([[| peak |]]
          for [One]) *)
  final_unreclaimed : int;
  uaf : int;
  bound : int option;
      (** the scheme's declared per-domain bound at this thread count *)
  crashes : int;
  planned_crashes : int;  (** tid-indexed [Crash] rules of the plan *)
  census_ok : bool;
      (** [unreclaimed = retired - reclaimed], no double frees, and a
          traced cell's records all merged or counted *)
  census_msg : string;  (** "" when clean *)
  injected : Fault.injected;
  snap : Stats.snapshot;  (** typed scheme counters at window end *)
}

(* The allocator's census, joined by the trace store's when the cell is
   traced. *)
let census () =
  let checks =
    Alloc.census ()
    :: (if Trace.enabled () then [ Trace.flight_census () ] else [])
  in
  ( List.for_all fst checks,
    String.concat "; "
      (List.filter_map (fun (ok, m) -> if ok then None else Some m) checks) )

(** The chaos workload over one map: the long-running-read body
    ({!Longrun.Body}) under a fault plan and a cell's op budgets. *)
module Runner (L : Ds.Ds_intf.MAP) = struct
  module B = Longrun.Body (L)

  (** [drive ~mode ~plan ~seed p t] — prefill [t], then run the body
      under [plan] with each reader's and writer's op budget and [p]'s
      tick budget.  The hunt runner drives its cases through this too. *)
  let drive ~mode ~plan ~seed (p : params) t =
    B.prefill ~key_range:p.key_range ~seed t;
    B.drive ~mode
      ~limit:
        (Cell_runner.Ops
           (fun tid -> if tid < p.readers then p.reader_ops else p.writer_ops))
      ~ticks:p.tick_budget ~plan ~seed ~readers:p.readers ~writers:p.writers
      ~key_range:p.key_range ~hot_width:p.hot_width t
end

(* The scheduler a chaos cell of [seed] runs under. *)
let mode_of (substrate : substrate) ~seed =
  Cell_runner.sched_mode
    (match substrate with `Fibers -> Spec.Fibers seed | `Domains -> Spec.Domains)

(** [run_one ~substrate ~scheme ~plan_id ~seed p] executes one chaos
    cell over [topology] (default [One]).  With [~traced:true] the event
    tracer records the run into the substrate's sink
    ({!Cell_runner.trace_sink}), and the decoded log, taken before the
    domains' teardown drain, is returned alongside. *)
let run_one ?(traced = false) ?(topology = One) ~substrate ~scheme ~plan_id
    ~seed (p : params) : cell * Trace.record list =
  let p = effective_params p plan_id in
  let pl = plan_of p plan_id in
  let nthreads = p.readers + p.writers in
  let mode = mode_of substrate ~seed in
  (* Small-batch tuning keeps bounds (and cells) small. *)
  let ((module X : Hpbrcu_core.Smr_intf.SCHEME), config) as impl =
    Schemes.find ~tuning:`Small scheme
  in
  let caps = X.caps config in
  let start () =
    Alloc.reset ();
    Alloc.set_strict false;
    if traced then
      Trace.enable ~sink:(fst (Cell_runner.trace_sink mode)) ~ndomains:nthreads ()
  in
  (* Drive [t], then read the books: [dom_peaks] gives the per-domain
     peaks, and the log is taken before any domain is torn down. *)
  let cell (type a) (module L : Ds.Ds_intf.MAP with type t = a) ~scheme_stats
      ~dom_peaks (t : a) =
    let module R = Runner (L) in
    let r = R.drive ~mode ~plan:pl ~seed p t in
    let st = Alloc.stats () in
    let census_ok, census_msg = census () in
    let c =
      {
        scheme;
        plan = plan_name plan_id;
        seed;
        topology;
        terminated = not r.deadline_hit;
        exhausted = r.exhausted;
        ticks = r.ticks;
        wall_ns = (if substrate = `Fibers then 0 else r.elapsed_ns);
        total_ops = Array.fold_left ( + ) 0 r.ops;
        peak = st.Alloc.peak_unreclaimed;
        dom_peaks = dom_peaks ();
        final_unreclaimed = st.Alloc.unreclaimed;
        uaf = st.Alloc.uaf;
        bound = caps.Caps.bound ~nthreads;
        crashes = r.crashes;
        planned_crashes = List.length (Fault.crash_tids pl);
        census_ok;
        census_msg;
        injected = r.injected;
        snap = scheme_stats ();
      }
    in
    let log = if traced then Trace.dump () else [] in
    if traced then Trace.disable ();
    (c, log)
  in
  match topology with
  | One ->
      Matrix.with_list impl (fun (module L) (module D) ->
          start ();
          cell (module L) ~scheme_stats:D.S.stats
            ~dom_peaks:(fun () -> [| Alloc.peak_unreclaimed () |])
            (L.create ()))
  | Isolated | Shared ->
      start ();
      let module B = (val Matrix.list_for caps) in
      let module Sh = Ds.Sharded_hashmap.Make_gen (B) (X) in
      let t =
        if topology = Shared then
          Sh.create_shared ~label:"shared" ~shards ~buckets_per_shard config
        else Sh.create ~label:"shard" ~shards ~buckets_per_shard config
      in
      let doms = Sh.domains t in
      Fun.protect
        ~finally:(fun () -> Sh.destroy ~force:true t)
        (fun () ->
          cell
            (module struct
              include Sh

              let name = "ShardedHashMap"
              let create () = t
            end : Ds.Ds_intf.MAP
              with type t = Sh.t)
            ~scheme_stats:(fun () ->
              Array.fold_left (fun acc d -> Stats.add acc (X.stats d)) Stats.empty doms)
            ~dom_peaks:(fun () ->
              Array.map (fun d -> Dom.peak_unreclaimed (X.dom d)) doms)
            t)

(** [run_traced_to_file ~substrate ~scheme ~plan_id ~seed ~out p] — one
    traced chaos cell written to [out] for [smrbench analyze] / Perfetto
    export: in virtual ticks on fibers, or in merged ns under a
    [# unit: ns] header on domains. *)
let run_traced_to_file ~substrate ~scheme ~plan_id ~seed ~out (p : params) :
    cell =
  let c, log = run_one ~traced:true ~substrate ~scheme ~plan_id ~seed p in
  let _, unit_ = Cell_runner.trace_sink (mode_of substrate ~seed) in
  Trace.to_file ?unit_ out log;
  c

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

(** Per-cell invariant check, the same on both substrates and every
    topology (the bound holds per domain); returns human-readable
    violations. *)
let check_cell (c : cell) : string list =
  let v = ref [] in
  let fail msg = v := msg :: !v in
  if not c.terminated then fail "did not terminate within its budget";
  if c.exhausted then fail "a worker exhausted a slot registry";
  if c.uaf > 0 then fail (Printf.sprintf "use-after-free detected: %d" c.uaf);
  (match c.bound with
  | Some b ->
      Array.iteri
        (fun i pk ->
          if pk > b then
            fail
              (Printf.sprintf "%speak unreclaimed %d exceeds declared bound %d"
                 (if c.topology = One then "" else Printf.sprintf "domain %d " i)
                 pk b))
        c.dom_peaks
  | None -> ());
  if not c.census_ok then fail ("census: " ^ c.census_msg);
  if c.crashes <> c.planned_crashes then
    fail
      (Printf.sprintf "crashed %d of %d planned workers" c.crashes
         c.planned_crashes);
  List.rev !v

(** The domains ratio gate's default threshold. *)
let default_hw_threshold = 4.

(** The robustness discriminator — the verdict policy, and the one place
    the substrates judge differently.  Under a crashed reader an EBR
    epoch can never advance again:

    - fibers (Table 2): RCU's crashed-reader peak must blow past 10× its
      own fault-free peak (deterministic, always armed);
    - domains: RCU's crashed-reader peak must exceed HP-BRCU's — which
      neutralizes the victim — by [threshold].  Statistical, so the
      verdict arms only when [armed] ([None] = reported, not gated).

    Robust schemes staying inside their bounds is checked per cell.
    Returns [(seed, ratio, verdict)] for each seed with both cells. *)
let discriminator ~(substrate : substrate) ~threshold ~armed (cells : cell list)
    : (int * float * bool option) list =
  let find scheme plan seed =
    List.find_opt
      (fun c -> c.scheme = scheme && c.plan = plan && c.seed = seed)
      cells
  in
  let den_scheme, den_plan, passes =
    match substrate with
    | `Fibers -> ("RCU", "baseline", fun r -> r > 10.)
    | `Domains -> ("HP-BRCU", "crash-reader", fun r -> r >= threshold)
  in
  List.filter_map
    (fun seed ->
      match (find "RCU" "crash-reader" seed, find den_scheme den_plan seed) with
      | Some num, Some den ->
          let ratio = float_of_int num.peak /. float_of_int (max 1 den.peak) in
          Some (seed, ratio, if armed then Some (passes ratio) else None)
      | _ -> None)
    (List.sort_uniq compare (List.map (fun c -> c.seed) cells))

(** Shard isolation (DESIGN.md §12): an [Isolated] and a [Shared] cell of
    the same scheme, crashed-reader plan and seed.  The crash pins one
    shard's domain in the isolated build, which strands only that shard's
    retirements, while in the shared build it strands the whole map's.
    The verdict divides the shared peak by the largest isolated peak
    outside the most-stranded shard. *)
type isolation = {
  isolated : cell;
  shared : cell;
  stranded : int;  (** the isolated build's most-stranded shard *)
  others_max : int;  (** the largest isolated peak outside it *)
  shared_peak : int;
  ratio : float;  (** [shared_peak / others_max] *)
  threshold : float;
  ok : bool;  (** the ratio clears [threshold] and both cells pass {!check_cell} *)
}

(** The isolation gate's default: 8× on fibers; 4× on domains, where a
    reader can sit mid-section in any shard when a writer's batch fills,
    so the unstranded shards' peaks wander several batches above their
    fiber values. *)
let isolation_threshold : substrate -> float = function
  | `Fibers -> 8.
  | `Domains -> 4.

let isolation ~threshold ~(isolated : cell) ~(shared : cell) : isolation =
  let peaks = Array.to_list isolated.dom_peaks in
  let top = List.fold_left max 0 peaks in
  let stranded = Option.get (List.find_index (( = ) top) peaks) in
  let others_max =
    List.fold_left max 0 (List.filteri (fun i _ -> i <> stranded) peaks)
  in
  let shared_peak = Array.fold_left max 0 shared.dom_peaks in
  let ratio = float_of_int shared_peak /. float_of_int (max 1 others_max) in
  {
    isolated;
    shared;
    stranded;
    others_max;
    shared_peak;
    ratio;
    threshold;
    ok = ratio >= threshold && check_cell isolated = [] && check_cell shared = [];
  }

let pp_isolation ppf (v : isolation) =
  let i = v.isolated in
  Fmt.pf ppf
    "shards %s: %s, %d shards, seed=%d@\n\
    \  isolated: per-shard peaks %a (most stranded: shard %d; others' max \
     %d), ops=%d@\n\
    \  shared:   domain peak %d, ops=%d@\n\
    \  isolation ratio (shared / worst unstranded shard): %.1fx %s"
    i.scheme i.plan (Array.length i.dom_peaks) i.seed
    Fmt.(array ~sep:(any "/") int)
    i.dom_peaks v.stranded v.others_max i.total_ops v.shared_peak
    v.shared.total_ops v.ratio
    (if v.ratio >= v.threshold then "(isolated)"
     else Printf.sprintf "BELOW %.1fx" v.threshold);
  List.iter
    (fun (build, c) ->
      List.iter
        (fun msg -> Fmt.pf ppf "@\nVIOLATION %s build: %s" build msg)
        (check_cell c))
    [ ("isolated", v.isolated); ("shared", v.shared) ]

(* ------------------------------------------------------------------ *)
(* The grid                                                            *)
(* ------------------------------------------------------------------ *)

type report = {
  substrate : substrate;
  cells : cell list;
  violations : (cell * string) list;
  ratios : (int * float * bool option) list;
      (** the discriminator per seed; verdict [None] = unarmed *)
  armed : bool;  (** ratio gate armed (always on fibers; >= 2 cores on domains) *)
  threshold : float;  (** the domains ratio gate *)
  probes : int;  (** traced replay probes actually run *)
  replay_mismatches : (string * string * int * string) list;
      (** cells whose traced re-run diverged, with the first divergence *)
}

(* First point where two event logs disagree, for the mismatch report. *)
let first_divergence l1 l2 =
  let rec go i = function
    | [], [] -> "logs identical (cell counters differed)"
    | [], r :: _ -> Printf.sprintf "event %d only in re-run: %s" i (Trace.record_to_string r)
    | r :: _, [] -> Printf.sprintf "event %d only in first run: %s" i (Trace.record_to_string r)
    | a :: t1, b :: t2 ->
        if a = b then go (i + 1) (t1, t2)
        else
          Printf.sprintf "event %d: %s vs %s" i (Trace.record_to_string a)
            (Trace.record_to_string b)
  in
  go 0 (l1, l2)

let all_schemes = Schemes.names

(* Determinism probes (fibers only): one signal-heavy robust scheme under
   crashes, one epoch scheme fault-free, one drop/delay cell.  Each is run
   twice with the tracer on; the decoded logs must be identical. *)
let replay_probes = [ ("HP-BRCU", Crash_reader); ("RCU", Baseline); ("NBR", Signal_chaos) ]

(* The smoke subset: the two discriminator schemes under the plans the
   discriminator needs.  check.sh runs exactly this on domains. *)
let smoke_schemes = [ "RCU"; "HP-BRCU" ]
let smoke_plans = [ Baseline; Crash_reader ]

let pp_cell ppf (c : cell) =
  let i = c.injected in
  Fmt.pf ppf
    "%-9s %-12s seed=%-2d %s ops=%-6d peak=%-6d bound=%-7s crashes=%d \
     faults[stall=%d crash=%d drop=%d delay=%d pool=%d] quar=%d leak=%d"
    c.scheme c.plan c.seed
    (if c.terminated then "ok      " else "DEADLINE")
    c.total_ops c.peak
    (match c.bound with None -> "-" | Some b -> string_of_int b)
    c.crashes i.Fault.stalls i.Fault.crashes i.Fault.drops i.Fault.delays
    i.Fault.pool_misses c.snap.Stats.quarantines c.snap.Stats.leaked

(** [run_grid ~substrate p] — the chaos matrix.  [verbose] prints one
    line per cell as it lands; [replay] toggles the traced determinism
    probes (fibers only); [threshold] is the domains ratio gate. *)
let run_grid ?(schemes = all_schemes) ?(plans = all_plans) ?(seeds = [ 1 ])
    ?(replay = true) ?(threshold = default_hw_threshold) ?(verbose = false)
    ~(substrate : substrate) (p : params) : report =
  let cells =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun scheme ->
            List.map
              (fun plan_id ->
                let c, _ = run_one ~substrate ~scheme ~plan_id ~seed p in
                if verbose then Fmt.pr "%a@." pp_cell c;
                c)
              plans)
          schemes)
      seeds
  in
  let violations =
    List.concat_map (fun c -> List.map (fun v -> (c, v)) (check_cell c)) cells
  in
  let armed = substrate = `Fibers || Backend.hardware_threads () >= 2 in
  let probes =
    if substrate = `Domains || not replay then []
    else
      List.filter
        (fun (scheme, plan_id) -> List.mem scheme schemes && List.mem plan_id plans)
        replay_probes
  in
  let replay_mismatches =
    List.concat_map
      (fun (scheme, plan_id) ->
        let seed = match seeds with s :: _ -> s | [] -> 1 in
        let traced () = run_one ~traced:true ~substrate ~scheme ~plan_id ~seed p in
        let c1, l1 = traced () in
        let c2, l2 = traced () in
        if l1 = l2 && c1.peak = c2.peak && c1.total_ops = c2.total_ops then []
        else [ (scheme, plan_name plan_id, seed, first_divergence l1 l2) ])
      probes
  in
  {
    substrate;
    cells;
    violations;
    ratios = discriminator ~substrate ~threshold ~armed cells;
    armed;
    threshold;
    probes = List.length probes;
    replay_mismatches;
  }

let report_ok (r : report) =
  r.violations = []
  && r.replay_mismatches = []
  && List.for_all (fun (_, _, verdict) -> verdict <> Some false) r.ratios

let pp_report ppf (r : report) =
  List.iter
    (fun (c, v) ->
      Fmt.pf ppf "VIOLATION %s/%s seed=%d: %s@." c.scheme c.plan c.seed v)
    r.violations;
  List.iter
    (fun (seed, ratio, verdict) ->
      match r.substrate with
      | `Fibers ->
          Fmt.pf ppf "discriminator seed=%d: RCU crash/baseline peak ratio %.1fx %s@."
            seed ratio
            (if verdict = Some true then "(> 10x, EBR collapse reproduced)"
             else "TOO SMALL")
      | `Domains ->
          Fmt.pf ppf
            "hw discriminator seed=%d: RCU/HP-BRCU crashed-reader peak ratio \
             %.1fx %s@."
            seed ratio
            (match verdict with
            | Some true -> Printf.sprintf "(>= %.1fx, gate passed)" r.threshold
            | Some false -> Printf.sprintf "BELOW %.1fx GATE" r.threshold
            | None -> "(1 core: ratio gate skipped, reported only)"))
    r.ratios;
  List.iter
    (fun (s, pl, seed, why) ->
      Fmt.pf ppf "REPLAY MISMATCH %s/%s seed=%d: %s@." s pl seed why)
    r.replay_mismatches;
  Fmt.pf ppf "chaos%s: %d cells, %d violations, %s%s@."
    (match r.substrate with `Fibers -> "" | `Domains -> "[domains]")
    (List.length r.cells)
    (List.length r.violations)
    (match r.substrate with
    | `Fibers -> Printf.sprintf "%d replay probes" r.probes
    | `Domains ->
        "ratio gate " ^ if r.armed then "armed" else "skipped (1 core)")
    (if report_ok r then " — all invariants hold" else " — FAILED")

(* Advisory baseline rows (e.g. for BENCH_domains.json): peaks only, no
   gates — the wall-clock numbers are whatever this box produced. *)
let json_of_report (r : report) =
  let row (c : cell) =
    Json.Obj
      [
        ("scheme", Json.Str c.scheme);
        ("plan", Json.Str c.plan);
        ("seed", Json.Int c.seed);
        ("total_ops", Json.Int c.total_ops);
        ("peak_unreclaimed", Json.Int c.peak);
        ("final_unreclaimed", Json.Int c.final_unreclaimed);
        ("crashes", Json.Int c.crashes);
        ("uaf", Json.Int c.uaf);
        ("census_ok", Json.Bool c.census_ok);
        ("ticks", Json.Int c.ticks);
        ("wall_ns", Json.Int c.wall_ns);
        ( "bound",
          match c.bound with None -> Json.Null | Some b -> Json.Int b );
      ]
  in
  Json.Obj
    [
      ( "benchmark",
        Json.Str
          (match r.substrate with
          | `Fibers -> "chaos-fibers"
          | `Domains -> "chaos-domains") );
      ("hardware_threads", Json.Int (Backend.hardware_threads ()));
      ("ratio_gates_active", Json.Bool r.armed);
      ("threshold", Json.Float r.threshold);
      ("cells", Json.List (List.map row r.cells));
      ( "discriminator",
        Json.List
          (List.map
             (fun (seed, ratio, verdict) ->
               Json.Obj
                 [
                   ("seed", Json.Int seed);
                   ("ratio", Json.Float ratio);
                   ( "gated_ok",
                     match verdict with
                     | Some ok -> Json.Bool ok
                     | None -> Json.Null );
                 ])
             r.ratios) );
    ]

let write_json path (r : report) = Json.to_file path (json_of_report r)
