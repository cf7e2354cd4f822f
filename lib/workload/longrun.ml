(** The long-running-read workload (Figures 1, 6, 22, B.3, C.3).

    Half the threads run [get] over the whole (large) key range of a sorted
    list — operations whose length grows with the range — while the other
    half insert/remove keys in a small hot region at the head of the list,
    generating heavy reclamation pressure.  Measured: the readers'
    throughput (plotted as a ratio to NR) and the peak number of
    unreclaimed blocks.

    What this module adds to the cell engine ({!Cell_runner.Make.drive})
    is the workload's body ({!Body}: the 50% prefill, the per-worker RNG
    seed and the reader/writer step) and a wall-clock window.  The
    robustness harnesses — {!Chaos} and the hunt runner in lib/check —
    drive the same body under op budgets, faults and their own
    schedules, so a seed draws the same keys everywhere.  Every scheme
    runs the list {!Matrix.with_list} binds: HHSList, or HMList where
    hazard pointers cannot traverse optimistically, as in §6. *)

module Alloc = Hpbrcu_alloc.Alloc
module Rng = Hpbrcu_runtime.Rng
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
module Schemes = Hpbrcu_schemes.Schemes
module Ds = Hpbrcu_ds

type config = {
  key_range : int;  (** list key range; op length ≈ range/4 links *)
  readers : int;
  writers : int;
  hot_width : int;  (** writers churn keys in [0, hot_width) *)
  duration : float;
  mode : Spec.mode;
  seed : int;
}

let config ?(key_range = 4096) ?(readers = 2) ?(writers = 2) ?(hot_width = 64)
    ?(duration = 0.2) ?(mode = Spec.Domains) ?(seed = 1) () =
  { key_range; readers; writers; hot_width; duration; mode; seed }

type outcome = {
  reader_tput : float;  (** Mop/s over all readers *)
  writer_tput : float;
  peak_unreclaimed : int;
  uaf : int;
  scheme : Stats.snapshot;  (** typed scheme counters at window end *)
  latency_unit : string;  (** ["tick"] or ["ns"] *)
  reader_latency : Stats.Histogram.summary;  (** per-[get] latency *)
  writer_latency : Stats.Histogram.summary;  (** per-insert/remove latency *)
}

(** The workload body over one map. *)
module Body (L : Ds.Ds_intf.MAP) = struct
  module E = Cell_runner.Make (L)

  (** Prefill to 50% single-threaded.  Harnesses that inject faults call
      this before arming them, so a plan's occurrence counters index the
      workload proper.  The peak watermarks (the allocator's and every
      domain's) restart afterwards, so they measure the workload alone. *)
  let prefill ~key_range ~seed t =
    let s = L.session t in
    let rng = Rng.create ~seed:(seed lxor 0xfeed) in
    let inserted = ref 0 in
    while !inserted < key_range / 2 do
      if L.insert t s (Rng.int rng key_range) 0 then incr inserted
    done;
    L.close_session s;
    Alloc.reset_peak ();
    Alloc.reset_owner_peaks ()

  (** [drive ~mode ~limit ~seed ~readers ~writers ~key_range ~hot_width t]
      — the engine ({!Cell_runner.Make.drive}) over the body's step:
      readers (tids [\[0, readers)]) [get] across the whole range,
      writers insert or remove (even mix) in [\[0, hot_width)]. *)
  let drive ~mode ~limit ?ticks ?plan ?lat ~seed ~readers ~writers
      ~key_range ~hot_width t =
    let pick tid rng =
      if tid < readers then Cell_runner.Op.get (Rng.int rng key_range)
      else
        let k = Rng.int rng hot_width in
        if Rng.bool rng then Cell_runner.Op.insert k else Cell_runner.Op.remove k
    in
    E.drive ~mode ~limit ?ticks ?plan ?lat ~nthreads:(readers + writers)
      ~rng_seed:(fun tid -> seed + (tid * 104729))
      ~pick t
end

(** [with_run ~scheme c k] — the long-running-read cell for one scheme
    in a fresh small-batch domain (see {!Hpbrcu_schemes.Schemes.small}: the
    batch threshold scales down with the scaled key ranges), over the list
    the scheme runs, its outcome handed to [k] before the domain is
    destroyed.  Every worker runs until [c.duration] elapses. *)
let with_run ~scheme (c : config) k =
  Matrix.with_list (Schemes.find ~tuning:`Small scheme)
    (fun (module L) (module D) ->
      let module B = Body (L) in
      Alloc.reset ();
      Alloc.set_strict false;
      let t = L.create () in
      B.prefill ~key_range:c.key_range ~seed:c.seed t;
      let readers = Stats.Histogram.make () and writers = Stats.Histogram.make () in
      let r =
        B.drive
          ~mode:(Cell_runner.sched_mode c.mode)
          ~limit:(Cell_runner.Duration c.duration)
          ~lat:[| readers; writers; writers |]
          ~seed:c.seed ~readers:c.readers ~writers:c.writers
          ~key_range:c.key_range ~hot_width:c.hot_width t
      in
      if r.exhausted then failwith "Longrun: a worker exhausted a registry";
      let elapsed = float_of_int r.elapsed_ns *. 1e-9 in
      let sum a b = Array.fold_left ( + ) 0 (Array.sub r.ops a b) in
      let st = Alloc.stats () in
      k
        {
          reader_tput = float_of_int (sum 0 c.readers) /. elapsed /. 1e6;
          writer_tput = float_of_int (sum c.readers c.writers) /. elapsed /. 1e6;
          peak_unreclaimed = st.Alloc.peak_unreclaimed;
          uaf = st.Alloc.uaf;
          scheme = Trace.flight_checked ~who:"Longrun" (D.stats D.it);
          latency_unit =
            (match c.mode with Spec.Fibers _ -> "tick" | Spec.Domains -> "ns");
          reader_latency = Stats.Histogram.summary readers;
          writer_latency = Stats.Histogram.summary writers;
        })

(** [run ~scheme c] — {!with_run} returning the outcome. *)
let run ~scheme c = with_run ~scheme c Fun.id

(** [run_traced ~scheme ~out c] — one long-running-read cell with the
    tracer recording ({!Cell_runner.trace_sink} picks the sink and the
    file's unit), written to [out] on completion (the input format of
    [smrbench analyze]).  In fiber mode the trace is a pure function of
    the seed; in domain mode the flight recorder's lossy-but-counted
    per-domain rings carry the GC track along.  The log is written
    before the cell's domain is destroyed, so teardown drains never
    reach it. *)
let run_traced ~scheme ~out (c : config) : outcome =
  let sink, unit_ = Cell_runner.trace_sink (Cell_runner.sched_mode c.mode) in
  Trace.enable ~sink ~ndomains:(c.readers + c.writers) ();
  Fun.protect ~finally:Trace.disable (fun () ->
      with_run ~scheme c (fun o ->
          Trace.to_file ?unit_ out (Trace.dump ());
          o))
