(** Live stats sampling ([smrbench sample], DESIGN.md §15): the first
    real peak-garbage-over-time curves on the Domains backend.

    Reclamation papers since IBR/Hyaline evaluate robustness on the
    {e time series} of retired-but-unreclaimed blocks, not just its
    end-of-run peak; the fiber tracer reconstructs that curve from
    Retire/Reclaim events, but only in simulation.  This module measures
    it on real domains: an {b observer domain} — outside the worker set,
    so it never perturbs the schedule beyond its own core — wakes every
    [period_ms] and snapshots the allocator watermark plus the scheme's
    live gauges (epoch lag, signals in flight, admission waits) into a
    time-series the command writes as CSV/JSON.

    The workload under observation is the balloon/heal discriminator: a
    Longrun-style read/write churn where reader 0 (the {b victim}) parks
    inside a critical section from [stall_after] to [heal_after] —
    emulating the paper's crashed/preempted reader, then recovering.
    Epoch-only schemes (RCU) balloon for the whole window because one
    pinned reader blocks every reclamation; HP-BRCU keeps reclaiming
    everything outside the victim's hazard pointers, so its curve stays
    within a few batches of the fault-free floor and the post-heal tail
    shows both converging back down.  All sampling is read-only over
    lock-free counters, so the observer is safe against the workers. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Rng = Hpbrcu_runtime.Rng
module Clock = Hpbrcu_runtime.Clock
module Stats = Hpbrcu_runtime.Stats
module Schemes = Hpbrcu_schemes.Schemes
module Ds = Hpbrcu_ds

type params = {
  scheme : string;
  period_ms : float;  (** observer wake period *)
  duration : float;  (** whole measured window, seconds *)
  stall_after : float;  (** victim parks pinned at this offset *)
  heal_after : float;  (** ... and resumes at this one *)
  readers : int;  (** including the victim (tid 0) *)
  writers : int;
  key_range : int;
  hot_width : int;
  seed : int;
}

let default_params =
  {
    scheme = "HP-BRCU";
    period_ms = 5.;
    duration = 1.2;
    stall_after = 0.3;
    heal_after = 0.8;
    readers = 2;
    writers = 2;
    key_range = 2048;
    hot_width = 64;
    seed = 1;
  }

type sample = {
  t_ms : float;  (** offset from window start *)
  unreclaimed : int;
  peak : int;  (** running allocator high-water mark *)
  epoch_lag : int;
  signals_inflight : int;
  backpressure_waits : int;
  stalled : bool;  (** victim pinned at sample time *)
}

type outcome = {
  p : params;
  samples : sample list;  (** oldest first *)
  baseline_peak : int;  (** max unreclaimed sampled before the stall *)
  balloon_peak : int;  (** max unreclaimed sampled while pinned *)
  healed_floor : int;  (** min unreclaimed sampled after the heal *)
  final_unreclaimed : int;
  uaf : int;
  total_ops : int;
}

module Go (L : Hpbrcu_ds.Ds_intf.MAP) (S : Hpbrcu_core.Smr_intf.S) = struct
  let go (p : params) : outcome =
    Alloc.reset ();
    Alloc.set_strict false;
    let t = L.create () in
    let s = L.session t in
    let rng = Rng.create ~seed:(p.seed lxor 0xfeed) in
    let inserted = ref 0 in
    while !inserted < p.key_range / 2 do
      if L.insert t s (Rng.int rng p.key_range) 0 then incr inserted
    done;
    L.close_session s;
    Alloc.reset_peak ();
    let t0 = Clock.now () in
    let stop = Atomic.make false in
    let stalled = Atomic.make false in
    let nthreads = p.readers + p.writers in
    let ops = Array.make nthreads 0 in
    (* ---- the observer domain: sample until told to stop ---- *)
    let samples = ref [] (* newest first *) in
    let observer_stop = Atomic.make false in
    let observer =
      Domain.spawn (fun () ->
          while not (Atomic.get observer_stop) do
            let snap = S.stats () in
            samples :=
              {
                t_ms = (Clock.now () -. t0) *. 1e3;
                unreclaimed = Alloc.current_unreclaimed ();
                peak = Alloc.peak_unreclaimed ();
                epoch_lag = snap.Stats.max_epoch_lag;
                signals_inflight = snap.Stats.max_signals_inflight;
                backpressure_waits = snap.Stats.backpressure_waits;
                stalled = Atomic.get stalled;
              }
              :: !samples;
            Unix.sleepf (p.period_ms /. 1e3)
          done)
    in
    (* ---- the workload ---- *)
    Sched.set_deadline (t0 +. p.duration +. (p.duration /. 2.));
    let worker tid =
      let s = L.session t in
      let rng = Rng.create ~seed:(p.seed + (tid * 104729)) in
      let reader = tid < p.readers in
      let victim = tid = 0 in
      let n = ref 0 in
      let stall_done = ref false in
      while not (Atomic.get stop) do
        let elapsed = Clock.now () -. t0 in
        (try
           if victim && (not !stall_done) && elapsed >= p.stall_after then begin
             (* The balloon: a fresh participant parks pinned inside a
                critical section until the heal point — the observable
                effect of a reader crashed (or descheduled) mid-section.
                The spin never reaches a scheme yield point, so even
                signal-armed schemes cannot roll it back: exactly the
                §4 worst case their hazard pointers are supposed to
                bound and epoch-only schemes cannot. *)
             stall_done := true;
             let h = S.register () in
             S.crit h (fun () ->
                 Atomic.set stalled true;
                 while
                   Clock.now () -. t0 < p.heal_after
                   && not (Atomic.get stop)
                 do
                   Domain.cpu_relax ()
                 done);
             Atomic.set stalled false;
             S.unregister h
           end
           else if reader then ignore (L.get t s (Rng.int rng p.key_range) : bool)
           else begin
             let k = Rng.int rng p.hot_width in
             if Rng.bool rng then ignore (L.insert t s k 0 : bool)
             else ignore (L.remove t s k : bool)
           end;
           incr n
         with Sched.Deadline -> Atomic.set stop true);
        if !n land 63 = 0 && Clock.now () -. t0 >= p.duration then
          Atomic.set stop true
      done;
      ops.(tid) <- !n;
      try L.close_session s with Sched.Deadline -> ()
    in
    Sched.run Sched.Domains ~nthreads worker;
    Sched.clear_deadline ();
    (* One last sample so the curve always covers the tail, then land the
       observer. *)
    Atomic.set observer_stop true;
    Domain.join observer;
    let final_snap = S.stats () in
    samples :=
      {
        t_ms = (Clock.now () -. t0) *. 1e3;
        unreclaimed = Alloc.current_unreclaimed ();
        peak = Alloc.peak_unreclaimed ();
        epoch_lag = final_snap.Stats.max_epoch_lag;
        signals_inflight = final_snap.Stats.max_signals_inflight;
        backpressure_waits = final_snap.Stats.backpressure_waits;
        stalled = false;
      }
      :: !samples;
    let st = Alloc.stats () in
    let samples = List.rev !samples in
    let stall_ms = p.stall_after *. 1e3 and heal_ms = p.heal_after *. 1e3 in
    let fold_max f =
      List.fold_left (fun acc x -> if f x then max acc x.unreclaimed else acc) 0
    in
    let baseline_peak = fold_max (fun x -> x.t_ms < stall_ms) samples in
    let balloon_peak = fold_max (fun x -> x.stalled) samples in
    let healed_floor =
      List.fold_left
        (fun acc x ->
          if x.t_ms >= heal_ms && not x.stalled then min acc x.unreclaimed
          else acc)
        max_int samples
    in
    let healed_floor = if healed_floor = max_int then 0 else healed_floor in
    {
      p;
      samples;
      baseline_peak;
      balloon_peak;
      healed_floor;
      final_unreclaimed = st.Alloc.unreclaimed;
      uaf = st.Alloc.uaf;
      total_ops = Array.fold_left ( + ) 0 ops;
    }
end

(** [run p] — the balloon/heal cell for [p.scheme] (HP runs HMList,
    everyone else HHSList, as in Longrun); [None] if the scheme supports
    neither structure. *)
let run (p : params) : outcome option =
  Schemes.with_domain (Schemes.find ~tuning:`Small p.scheme) (fun (module D) ->
      let module S = D.S in
      if p.scheme = "HP" then
        let module G = Go (Ds.Hm_list.Make (S)) (S) in
        Some (G.go p)
      else if Matrix.supports (module S) Hpbrcu_core.Caps.HHSList then
        let module G = Go (Ds.Harris_list.Make_hhs (S)) (S) in
        Some (G.go p)
      else None)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let csv_header =
  "t_ms,unreclaimed,peak,epoch_lag,signals_inflight,backpressure_waits,stalled"

(** Write the time series as CSV (one row per observer wake). *)
let to_csv path (o : outcome) =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (csv_header ^ "\n");
      List.iter
        (fun s ->
          Printf.fprintf oc "%.2f,%d,%d,%d,%d,%d,%d\n" s.t_ms s.unreclaimed
            s.peak s.epoch_lag s.signals_inflight s.backpressure_waits
            (if s.stalled then 1 else 0))
        o.samples)

(** Write the time series plus the curve summary as JSON. *)
let to_json path (o : outcome) =
  let module J = Report.Json in
  J.to_file path
    (J.Obj
       [
         ("kind", J.Str "sample");
         ("scheme", J.Str o.p.scheme);
         ("period_ms", J.Float o.p.period_ms);
         ("duration_s", J.Float o.p.duration);
         ("stall_after_s", J.Float o.p.stall_after);
         ("heal_after_s", J.Float o.p.heal_after);
         ("seed", J.Int o.p.seed);
         ("baseline_peak", J.Int o.baseline_peak);
         ("balloon_peak", J.Int o.balloon_peak);
         ("healed_floor", J.Int o.healed_floor);
         ("final_unreclaimed", J.Int o.final_unreclaimed);
         ("uaf", J.Int o.uaf);
         ("total_ops", J.Int o.total_ops);
         ( "samples",
           J.List
             (List.map
                (fun s ->
                  J.Obj
                    [
                      ("t_ms", J.Float s.t_ms);
                      ("unreclaimed", J.Int s.unreclaimed);
                      ("peak", J.Int s.peak);
                      ("epoch_lag", J.Int s.epoch_lag);
                      ("signals_inflight", J.Int s.signals_inflight);
                      ("backpressure_waits", J.Int s.backpressure_waits);
                      ("stalled", J.Bool s.stalled);
                    ])
                o.samples) );
       ])

let pp ppf (o : outcome) =
  Fmt.pf ppf
    "sample %s: %d samples over %.2fs (period %.1fms), ops=%d@\n\
    \  baseline peak %d -> balloon peak %d (stall %.2f..%.2fs) -> healed \
     floor %d, final %d, uaf=%d"
    o.p.scheme (List.length o.samples) o.p.duration o.p.period_ms o.total_ops
    o.baseline_peak o.balloon_peak o.p.stall_after o.p.heal_after
    o.healed_floor o.final_unreclaimed o.uaf

(** Row for --stats-json. *)
let record (o : outcome) =
  Report.record_cell
    [
      ("kind", Report.Json.Str "sample");
      ("scheme", Report.Json.Str o.p.scheme);
      ("samples", Report.Json.Int (List.length o.samples));
      ("baseline_peak", Report.Json.Int o.baseline_peak);
      ("balloon_peak", Report.Json.Int o.balloon_peak);
      ("healed_floor", Report.Json.Int o.healed_floor);
      ("uaf", Report.Json.Int o.uaf);
    ]
