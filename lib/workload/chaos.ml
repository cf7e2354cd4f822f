(** Chaos harness: the scheme matrix under deterministic fault plans.

    The paper's robustness story (Table 2, Figure 1) is qualitative: EBR
    collapses when a reader stalls, HP-family schemes do not.  This module
    makes the claim executable and {e adversarial}: every scheme runs the
    long-running-read workload under a grid of {!Hpbrcu_runtime.Fault}
    plans — stall storms, crashed readers, lost and late signal
    deliveries, allocator-pool exhaustion — and three invariants are
    checked per cell:

    + {b termination} — the run completes within a virtual-tick budget
      even with crashed participants (graceful degradation, not deadlock);
    + {b safety} — zero use-after-free detections, faults or no faults;
    + {b boundedness} — the peak number of unreclaimed blocks stays within
      the scheme's declared {!Hpbrcu_core.Caps.t.bound} (schemes declaring
      [None] are exempt: unboundedness under stalls is their documented
      failure mode, and the {!discriminator} asserts it actually shows).

    Faults are counter-indexed, not clock-indexed, so a chaos cell is a
    pure function of [(scheme, plan, seed)]: the harness can (and does)
    re-run cells with the tracer on and require byte-identical event
    logs.

    {b Domains mode} ({!run_domains_grid}) runs the same plans against
    real [Domain.spawn] workers — a crashed reader is a worker domain
    parked forever while pinned ({!Hpbrcu_runtime.Fault.crash_park}), a
    stall is a timed park, signal faults intercept at [Signal.send] on
    the [Clock.now_ns] axis.  The invariants become statistical instead
    of byte-replay: UAF = 0, exact post-join allocator census
    ([unreclaimed = retired - reclaimed]), declared bounds never
    overshot, every planned crash observed, and the RCU-vs-HP-BRCU
    crashed-reader watermark discriminator reproduced on hardware
    (ratio gate self-armed on >= 2 cores, like the shards gate). *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Rng = Hpbrcu_runtime.Rng
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
module Fault = Hpbrcu_runtime.Fault
module Backend = Hpbrcu_runtime.Backend
module Clock = Hpbrcu_runtime.Clock
module Schemes = Hpbrcu_schemes.Schemes
module Caps = Hpbrcu_core.Caps
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

let all_plans =
  [ Baseline; Stall_storm; Crash_reader; Crash_many; Signal_chaos; Pool_squeeze ]

let plan_name = function
  | Baseline -> "baseline"
  | Stall_storm -> "stall-storm"
  | Crash_reader -> "crash-reader"
  | Crash_many -> "crash-many"
  | Signal_chaos -> "signal-chaos"
  | Pool_squeeze -> "pool-squeeze"

let plan_of_name = function
  | "baseline" -> Baseline
  | "stall-storm" -> Stall_storm
  | "crash-reader" -> Crash_reader
  | "crash-many" -> Crash_many
  | "signal-chaos" -> Signal_chaos
  | "pool-squeeze" -> Pool_squeeze
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

(* Signal-chaos cells pay a bounded-wait timeout per dropped delivery, so
   they run with a reduced write budget to stay inside CI time; the bound
   invariant is per-scheme and does not depend on op count. *)
let effective_params p = function
  | Signal_chaos -> { p with writer_ops = max 300 (p.writer_ops / 8) }
  | _ -> p

(* ------------------------------------------------------------------ *)
(* One cell                                                            *)
(* ------------------------------------------------------------------ *)

type cell = {
  scheme : string;
  plan : string;
  seed : int;
  terminated : bool;  (** finished without hitting the tick budget *)
  ticks : int;  (** last virtual tick observed by a finishing worker *)
  wall_ns : int;  (** elapsed wall time (domains cells; 0 on fibers) *)
  total_ops : int;
  peak : int;  (** peak unreclaimed blocks over the measured window *)
  final_unreclaimed : int;
  uaf : int;
  bound : int option;  (** the scheme's declared bound at this thread count *)
  crashes : int;
  injected : Fault.injected;
  snap : Stats.snapshot;  (** typed scheme counters at window end *)
}

module Runner (L : Ds.Ds_intf.MAP) = struct
  let go ~(p : params) ~(pl : Fault.plan) ~seed ~scheme_stats ~bound :
      string * string * int -> cell =
   fun (scheme, plan, _) ->
    let t = L.create () in
    (* Prefill to 50% before any fault is armed: the plan's occurrence
       counters must start at the workload proper or a cell's faults would
       depend on prefill length. *)
    let s = L.session t in
    let rng = Rng.create ~seed:(seed lxor 0xfeed) in
    let inserted = ref 0 in
    while !inserted < p.key_range / 2 do
      if L.insert t s (Rng.int rng p.key_range) 0 then incr inserted
    done;
    L.close_session s;
    Alloc.reset_peak ();
    let nthreads = p.readers + p.writers in
    let ops = Array.make nthreads 0 in
    let deadline_hit = ref false in
    let end_tick = ref 0 in
    Fault.install pl;
    Sched.set_tick_deadline p.tick_budget;
    let worker tid =
      let s = L.session t in
      let rng = Rng.create ~seed:(seed + (tid * 104729)) in
      let reader = tid < p.readers in
      let budget = if reader then p.reader_ops else p.writer_ops in
      (try
         for _ = 1 to budget do
           if reader then ignore (L.get t s (Rng.int rng p.key_range) : bool)
           else begin
             let k = Rng.int rng p.hot_width in
             if Rng.bool rng then ignore (L.insert t s k 0 : bool)
             else ignore (L.remove t s k : bool)
           end;
           ops.(tid) <- ops.(tid) + 1
         done;
         L.close_session s
       with Sched.Deadline -> deadline_hit := true);
      if Sched.tick () > !end_tick then end_tick := Sched.tick ()
    in
    Sched.run (Sched.Fibers { seed; switch_every = 4 }) ~nthreads worker;
    Sched.clear_tick_deadline ();
    let injected = Fault.injected () in
    let crashes = Sched.crashed_count () in
    Fault.clear ();
    let st = Alloc.stats () in
    {
      scheme;
      plan;
      seed;
      terminated = not !deadline_hit;
      ticks = !end_tick;
      wall_ns = 0;
      total_ops = Array.fold_left ( + ) 0 ops;
      peak = st.Alloc.peak_unreclaimed;
      final_unreclaimed = st.Alloc.unreclaimed;
      uaf = st.Alloc.uaf;
      bound;
      crashes;
      injected;
      snap = scheme_stats ();
    }
end

(** [run_one ~scheme ~plan_id ~seed p] executes one chaos cell.  With
    [~traced:true] the event tracer records the run and the decoded log is
    returned alongside (used by the determinism check). *)
let run_one ?(traced = false) ~scheme ~plan_id ~seed (p : params) :
    cell * Trace.record list =
  let p = effective_params p plan_id in
  let pl = plan_of p plan_id in
  (* Small-batch tuning keeps bounds (and cells) small. *)
  Schemes.with_domain (Schemes.find ~tuning:`Small scheme) (fun (module D) ->
      let module S = D.S in
      let bound = S.caps.Caps.bound ~nthreads:(p.readers + p.writers) in
      Alloc.reset ();
      Alloc.set_strict false;
      (* Spool, not ring: the determinism probes compare whole logs, and a
         lossy ring would make "byte-identical" vacuous for any cell that
         wraps; the spool also makes the log exportable to [smrbench
         analyze].  The log is taken before the domain's teardown drain. *)
      if traced then Trace.enable ~sink:Trace.Spool ();
      let go (module L : Ds.Ds_intf.MAP) =
        let module R = Runner (L) in
        R.go ~p ~pl ~seed ~scheme_stats:S.stats ~bound
          (scheme, plan_name plan_id, seed)
      in
      let cell =
        (* HP and HE/IBR (hazard-pointer applicability) run HMList. *)
        if scheme <> "HP" && Matrix.supports (module S) Caps.HHSList then
          go (module Ds.Harris_list.Make_hhs (S))
        else go (module Ds.Hm_list.Make (S))
      in
      let log = if traced then Trace.dump () else [] in
      if traced then Trace.disable ();
      (cell, log))

(** [run_traced_to_file ~scheme ~plan_id ~seed ~out p] — one traced chaos
    cell, spooled non-lossily and written to [out] for [smrbench
    analyze] / Perfetto export. *)
let run_traced_to_file ~scheme ~plan_id ~seed ~out (p : params) : cell =
  let c, log = run_one ~traced:true ~scheme ~plan_id ~seed p in
  Trace.to_file out log;
  c

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

(** Per-cell invariant check; returns human-readable violations. *)
let check_cell (c : cell) : string list =
  let v = ref [] in
  if not c.terminated then
    v := Printf.sprintf "did not terminate within the tick budget" :: !v;
  if c.uaf > 0 then v := Printf.sprintf "use-after-free detected: %d" c.uaf :: !v;
  (match c.bound with
  | Some b when c.peak > b ->
      v :=
        Printf.sprintf "peak unreclaimed %d exceeds declared bound %d" c.peak b
        :: !v
  | _ -> ());
  List.rev !v

(** The Table 2 discriminator: under a crashed reader, an EBR epoch can
    never advance again, so RCU's footprint must blow past 10× its own
    fault-free peak — while the robust schemes stay inside their bounds
    (checked per cell above).  Returns [(seed, ratio, ok)]. *)
let discriminator (cells : cell list) : (int * float * bool) list =
  let find plan seed =
    List.find_opt
      (fun c -> c.scheme = "RCU" && c.plan = plan && c.seed = seed)
      cells
  in
  let seeds =
    List.sort_uniq compare
      (List.filter_map
         (fun c -> if c.scheme = "RCU" then Some c.seed else None)
         cells)
  in
  List.filter_map
    (fun seed ->
      match (find "baseline" seed, find "crash-reader" seed) with
      | Some base, Some crash ->
          let ratio =
            float_of_int crash.peak /. float_of_int (max 1 base.peak)
          in
          Some (seed, ratio, ratio > 10.)
      | _ -> None)
    seeds

(* ------------------------------------------------------------------ *)
(* The grid                                                            *)
(* ------------------------------------------------------------------ *)

type report = {
  cells : cell list;
  violations : (cell * string) list;
  ratios : (int * float * bool) list;  (** RCU crash/baseline discriminator *)
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

(* Determinism probes: one signal-heavy robust scheme under crashes, one
   epoch scheme fault-free, one drop/delay cell.  Each is run twice with
   the tracer on; the decoded logs must be identical. *)
let replay_probes = [ ("HP-BRCU", Crash_reader); ("RCU", Baseline); ("NBR", Signal_chaos) ]

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

(** [run_grid p] — the full chaos matrix.  [verbose] prints one line per
    cell as it lands; [replay] toggles the traced determinism probes. *)
let run_grid ?(schemes = all_schemes) ?(plans = all_plans) ?(seeds = [ 1 ])
    ?(replay = true) ?(verbose = false) (p : params) : report =
  let cells = ref [] in
  List.iter
    (fun seed ->
      List.iter
        (fun scheme ->
          List.iter
            (fun plan_id ->
              let c, _ = run_one ~scheme ~plan_id ~seed p in
              if verbose then Fmt.pr "%a@." pp_cell c;
              cells := c :: !cells)
            plans)
        schemes)
    seeds;
  let cells = List.rev !cells in
  let violations =
    List.concat_map (fun c -> List.map (fun v -> (c, v)) (check_cell c)) cells
  in
  let ratios =
    if List.mem Baseline plans && List.mem Crash_reader plans then
      discriminator cells
    else []
  in
  let replay_mismatches =
    if not replay then []
    else
      List.concat_map
        (fun (scheme, plan_id) ->
          if List.mem scheme schemes && List.mem plan_id plans then begin
            let seed = match seeds with s :: _ -> s | [] -> 1 in
            let c1, l1 = run_one ~traced:true ~scheme ~plan_id ~seed p in
            let c2, l2 = run_one ~traced:true ~scheme ~plan_id ~seed p in
            if l1 = l2 && c1.peak = c2.peak && c1.total_ops = c2.total_ops then
              []
            else
              [ (scheme, plan_name plan_id, seed, first_divergence l1 l2) ]
          end
          else [])
        replay_probes
  in
  { cells; violations; ratios; replay_mismatches }

let report_ok (r : report) =
  r.violations = []
  && r.replay_mismatches = []
  && List.for_all (fun (_, _, ok) -> ok) r.ratios

let pp_report ppf (r : report) =
  List.iter
    (fun (c, v) ->
      Fmt.pf ppf "VIOLATION %s/%s seed=%d: %s@." c.scheme c.plan c.seed v)
    r.violations;
  List.iter
    (fun (seed, ratio, ok) ->
      Fmt.pf ppf "discriminator seed=%d: RCU crash/baseline peak ratio %.1fx %s@."
        seed ratio
        (if ok then "(> 10x, EBR collapse reproduced)" else "TOO SMALL"))
    r.ratios;
  List.iter
    (fun (s, pl, seed, why) ->
      Fmt.pf ppf "REPLAY MISMATCH %s/%s seed=%d: %s@." s pl seed why)
    r.replay_mismatches;
  Fmt.pf ppf "chaos: %d cells, %d violations, %d replay probes%s@."
    (List.length r.cells)
    (List.length r.violations)
    (List.length replay_probes)
    (if report_ok r then " — all invariants hold" else " — FAILED")

(* ------------------------------------------------------------------ *)
(* Domains mode: the same plans on real cores                          *)
(* ------------------------------------------------------------------ *)

(* The tick budget's lat_unit-aware dual: virtual ticks converted through
   the fault clock's exchange rate, floored at 10 s so a slow container
   never turns an honest cell into a termination violation.  quick's 8M
   ticks at the default 1 us/tick is a 10 s ceiling, full's 24M is 24 s. *)
let wall_budget_s (p : params) =
  Float.max 10. (float_of_int p.tick_budget *. float_of_int (Fault.tick_ns ()) *. 1e-9)

module Druner (L : Ds.Ds_intf.MAP) = struct
  let go ~(p : params) ~(pl : Fault.plan) ~seed ~scheme_stats ~bound :
      string * string * int -> cell =
   fun (scheme, plan, _) ->
    let t = L.create () in
    (* Prefill single-threaded, before any fault is armed, as in fiber
       mode: occurrence counters must index the workload proper. *)
    let s = L.session t in
    let rng = Rng.create ~seed:(seed lxor 0xfeed) in
    let inserted = ref 0 in
    while !inserted < p.key_range / 2 do
      if L.insert t s (Rng.int rng p.key_range) 0 then incr inserted
    done;
    L.close_session s;
    Alloc.reset_peak ();
    let nthreads = p.readers + p.writers in
    let ops = Array.init nthreads (fun _ -> Atomic.make 0) in
    let deadline_hit = Atomic.make false in
    let victims = Fault.crash_tids pl in
    let nvictims = List.length victims in
    Fault.install pl;
    Sched.set_deadline (Unix.gettimeofday () +. wall_budget_s p);
    let t0 = Clock.now_ns () in
    let worker tid =
      let s = L.session t in
      let rng = Rng.create ~seed:(seed + (tid * 104729)) in
      let reader = tid < p.readers in
      let victim = List.mem tid victims in
      let one_op () =
        if reader then ignore (L.get t s (Rng.int rng p.key_range) : bool)
        else begin
          let k = Rng.int rng p.hot_width in
          if Rng.bool rng then ignore (L.insert t s k 0 : bool)
          else ignore (L.remove t s k : bool)
        end;
        Atomic.incr ops.(tid)
      in
      try
        if victim then
          (* Op-loop until the crash rule fires: the rule is indexed on
             this worker's own yield count, so looping guarantees the
             occurrence is reached no matter how the OS schedules us.
             Exits via [Sched.Crashed] (absorbed by the backend) or the
             wall deadline. *)
          while true do
            one_op ()
          done
        else begin
          (* Crash plans: hold until every victim is parked pinned, so
             the stranding window covers the full retirement volume
             regardless of OS scheduling — the hardware analogue of the
             fiber plans' early crash index. *)
          if nvictims > 0 then
            Sched.wait_until (fun () -> Fault.parked_count () >= nvictims);
          let budget = if reader then p.reader_ops else p.writer_ops in
          for _ = 1 to budget do
            one_op ()
          done;
          L.close_session s
        end
      with Sched.Deadline -> Atomic.set deadline_hit true
    in
    Sched.run Sched.Domains ~nthreads worker;
    let wall_ns = Clock.now_ns () - t0 in
    Sched.clear_deadline ();
    let injected = Fault.injected () in
    let crashes = Sched.crashed_count () in
    Fault.clear ();
    let st = Alloc.stats () in
    {
      scheme;
      plan;
      seed;
      terminated = not (Atomic.get deadline_hit);
      ticks = 0;
      wall_ns;
      total_ops = Array.fold_left (fun a o -> a + Atomic.get o) 0 ops;
      peak = st.Alloc.peak_unreclaimed;
      final_unreclaimed = st.Alloc.unreclaimed;
      uaf = st.Alloc.uaf;
      bound;
      crashes;
      injected;
      snap = scheme_stats ();
    }
end

(** [run_domains_one ~scheme ~plan_id ~seed p] — one chaos cell on real
    domains, plus the post-join allocator census verdict. *)
let run_domains_one ~scheme ~plan_id ~seed (p : params) : cell * (bool * string)
    =
  let p = effective_params p plan_id in
  let pl = plan_of p plan_id in
  Schemes.with_domain (Schemes.find ~tuning:`Small scheme) (fun (module D) ->
      let module S = D.S in
      let bound = S.caps.Caps.bound ~nthreads:(p.readers + p.writers) in
      Alloc.reset ();
      Alloc.set_strict false;
      let go (module L : Ds.Ds_intf.MAP) =
        let module R = Druner (L) in
        R.go ~p ~pl ~seed ~scheme_stats:S.stats ~bound
          (scheme, plan_name plan_id, seed)
      in
      let cell =
        if scheme <> "HP" && Matrix.supports (module S) Caps.HHSList then
          go (module Ds.Harris_list.Make_hhs (S))
        else go (module Ds.Hm_list.Make (S))
      in
      (cell, Domains_bench.census ()))

(* Expected crash count of a plan: the tid-indexed Crash rules (the ones
   the handshake can wait for). *)
let expected_crashes (p : params) plan_id =
  List.length (Fault.crash_tids (plan_of p plan_id))

(** Domains-cell invariants: the fiber checks minus tick determinism,
    plus the exact census identity and "every planned crash observed". *)
let check_domains_cell ~expected ((c, (census_ok, census_msg)) : cell * (bool * string)) :
    string list =
  let v = ref [] in
  if not c.terminated then
    v := "did not terminate within the wall budget" :: !v;
  if c.uaf > 0 then v := Printf.sprintf "use-after-free detected: %d" c.uaf :: !v;
  (match c.bound with
  | Some b when c.peak > b ->
      v :=
        Printf.sprintf "peak unreclaimed %d exceeds declared bound %d" c.peak b
        :: !v
  | _ -> ());
  if not census_ok then v := Printf.sprintf "census: %s" census_msg :: !v;
  if c.crashes <> expected then
    v :=
      Printf.sprintf "crashed %d of %d planned workers" c.crashes expected :: !v;
  List.rev !v

(** The hardware crashed-reader discriminator: under a crashed reader on
    real cores, RCU's epoch is pinned forever while HP-BRCU neutralizes
    the victim, so RCU's peak watermark must exceed HP-BRCU's by the
    threshold.  Statistical, so the verdict only arms on >= 2 cores
    ([None] = reported, not gated), matching the shards convention. *)
let default_hw_threshold = 4.

let hw_discriminator ?(threshold = default_hw_threshold) ~armed
    (cells : cell list) : (int * float * bool option) list =
  let find scheme seed =
    List.find_opt
      (fun c -> c.scheme = scheme && c.plan = "crash-reader" && c.seed = seed)
      cells
  in
  let seeds =
    List.sort_uniq compare
      (List.filter_map
         (fun c -> if c.plan = "crash-reader" then Some c.seed else None)
         cells)
  in
  List.filter_map
    (fun seed ->
      match (find "RCU" seed, find "HP-BRCU" seed) with
      | Some rcu, Some hpb ->
          let ratio = float_of_int rcu.peak /. float_of_int (max 1 hpb.peak) in
          Some (seed, ratio, if armed then Some (ratio >= threshold) else None)
      | _ -> None)
    seeds

type domains_report = {
  d_cells : (cell * (bool * string)) list;  (** cell + its census verdict *)
  d_violations : (cell * string) list;
  d_ratios : (int * float * bool option) list;
      (** RCU / HP-BRCU crashed-reader watermark; verdict None = unarmed *)
  d_armed : bool;  (** ratio gate armed (>= 2 hardware cores) *)
  d_threshold : float;
}

(* The smoke subset: the two discriminator schemes under the plans the
   hardware gate needs.  check.sh runs exactly this. *)
let smoke_schemes = [ "RCU"; "HP-BRCU" ]
let smoke_plans = [ Baseline; Crash_reader ]

(** [run_domains_grid p] — the chaos matrix on real domains. *)
let run_domains_grid ?(schemes = all_schemes) ?(plans = all_plans)
    ?(seeds = [ 1 ]) ?(threshold = default_hw_threshold) ?(verbose = false)
    (p : params) : domains_report =
  let cells = ref [] in
  List.iter
    (fun seed ->
      List.iter
        (fun scheme ->
          List.iter
            (fun plan_id ->
              let (c, census) = run_domains_one ~scheme ~plan_id ~seed p in
              if verbose then Fmt.pr "%a@." pp_cell c;
              cells := ((c, census), expected_crashes p plan_id) :: !cells)
            plans)
        schemes)
    seeds;
  let cells = List.rev !cells in
  let d_cells = List.map fst cells in
  let d_violations =
    List.concat_map
      (fun ((c, _) as cc, expected) ->
        List.map (fun v -> (c, v)) (check_domains_cell ~expected cc))
      cells
  in
  let armed = Backend.hardware_threads () >= 2 in
  let d_ratios =
    if List.mem Crash_reader plans then
      hw_discriminator ~threshold ~armed (List.map fst d_cells)
    else []
  in
  { d_cells; d_violations; d_ratios; d_armed = armed; d_threshold = threshold }

let domains_report_ok (r : domains_report) =
  r.d_violations = []
  && List.for_all
       (fun (_, _, verdict) -> match verdict with Some ok -> ok | None -> true)
       r.d_ratios

let pp_domains_report ppf (r : domains_report) =
  List.iter
    (fun (c, v) ->
      Fmt.pf ppf "VIOLATION %s/%s seed=%d: %s@." c.scheme c.plan c.seed v)
    r.d_violations;
  List.iter
    (fun (seed, ratio, verdict) ->
      Fmt.pf ppf
        "hw discriminator seed=%d: RCU/HP-BRCU crashed-reader peak ratio \
         %.1fx %s@."
        seed ratio
        (match verdict with
        | Some true -> Printf.sprintf "(>= %.1fx, gate passed)" r.d_threshold
        | Some false -> Printf.sprintf "BELOW %.1fx GATE" r.d_threshold
        | None -> "(1 core: ratio gate skipped, reported only)"))
    r.d_ratios;
  Fmt.pf ppf "chaos[domains]: %d cells, %d violations, ratio gate %s%s@."
    (List.length r.d_cells)
    (List.length r.d_violations)
    (if r.d_armed then "armed" else "skipped (1 core)")
    (if domains_report_ok r then " — all invariants hold" else " — FAILED")

(* Advisory baseline rows for BENCH_domains.json: peaks only, no gates —
   the wall-clock numbers are whatever this box produced. *)
let json_of_domains_report (r : domains_report) =
  let row ((c : cell), (census_ok, _)) =
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
        ("census_ok", Json.Bool census_ok);
        ("wall_ns", Json.Int c.wall_ns);
        ( "bound",
          match c.bound with None -> Json.Null | Some b -> Json.Int b );
      ]
  in
  Json.Obj
    [
      ("benchmark", Json.Str "chaos-domains");
      ("hardware_threads", Json.Int (Backend.hardware_threads ()));
      ("ratio_gates_active", Json.Bool r.d_armed);
      ("threshold", Json.Float r.d_threshold);
      ("cells", Json.List (List.map row r.d_cells));
      ( "hw_discriminator",
        Json.List
          (List.map
             (fun (seed, ratio, verdict) ->
               Json.Obj
                 [
                   ("seed", Json.Int seed);
                   ("rcu_over_hpbrcu_peak", Json.Float ratio);
                   ( "gated_ok",
                     match verdict with
                     | Some ok -> Json.Bool ok
                     | None -> Json.Null );
                 ])
             r.d_ratios) );
    ]

let write_domains_json path (r : domains_report) =
  Json.to_file path (json_of_domains_report r)
