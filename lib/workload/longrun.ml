(** The long-running-operation benchmark (Figures 1, 6, 22, B.3, C.3).

    Half the threads run [get] over the whole (large) key range of a sorted
    list — operations whose length grows with the range — while the other
    half insert/remove keys in a small hot region at the head of the list,
    generating heavy reclamation pressure.  Measured: the readers'
    throughput (plotted as a ratio to NR) and the peak number of
    unreclaimed blocks.

    HP runs HMList; everyone else runs HHSList, as in §6. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Rng = Hpbrcu_runtime.Rng
module Clock = Hpbrcu_runtime.Clock
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

module Run (L : Hpbrcu_ds.Ds_intf.MAP) = struct
  let go (c : config) ~(scheme_stats : unit -> Stats.snapshot) : outcome =
    Alloc.reset ();
    Alloc.set_strict false;
    let t = L.create () in
    (* Prefill to 50%. *)
    let s = L.session t in
    let rng = Rng.create ~seed:(c.seed lxor 0xfeed) in
    let inserted = ref 0 in
    while !inserted < c.key_range / 2 do
      if L.insert t s (Rng.int rng c.key_range) 0 then incr inserted
    done;
    L.close_session s;
    Alloc.reset_peak ();
    let stop = Atomic.make false in
    let nthreads = c.readers + c.writers in
    let ops = Array.make nthreads 0 in
    (* Op-latency histograms; tick clock in fiber mode, ns otherwise. *)
    let now_lat =
      match c.mode with
      | Spec.Fibers _ -> Sched.tick
      | Spec.Domains -> Clock.now_ns
    in
    let lat_readers = Stats.Histogram.make () in
    let lat_writers = Stats.Histogram.make () in
    let t0 = Clock.now () in
    (* Starvation rescue: a reader that is neutralized faster than it can
       finish (the phenomenon under study!) never completes an operation,
       so it must be abortable from inside. *)
    Sched.set_deadline (t0 +. c.duration);
    let worker tid =
      let s = L.session t in
      let rng = Rng.create ~seed:(c.seed + (tid * 104729)) in
      let n = ref 0 in
      let reader = tid < c.readers in
      while not (Atomic.get stop) do
        (try
           let l0 = now_lat () in
           (* Op spans (0 get / 1 insert / 2 remove): a deadline abort
              leaves the last span open, which Perfetto renders as
              running-to-end-of-trace — exactly what happened. *)
           if reader then begin
             Trace.emit Trace.Op_begin 0;
             ignore (L.get t s (Rng.int rng c.key_range) : bool);
             Trace.emit Trace.Op_end 0;
             Stats.Histogram.record lat_readers (now_lat () - l0)
           end
           else begin
             let k = Rng.int rng c.hot_width in
             if Rng.bool rng then begin
               Trace.emit Trace.Op_begin 1;
               ignore (L.insert t s k 0 : bool);
               Trace.emit Trace.Op_end 1
             end
             else begin
               Trace.emit Trace.Op_begin 2;
               ignore (L.remove t s k : bool);
               Trace.emit Trace.Op_end 2
             end;
             Stats.Histogram.record lat_writers (now_lat () - l0)
           end;
           incr n
         with Sched.Deadline -> Atomic.set stop true);
        (* Readers' ops are long; check the clock every op for them and
           every 64 ops for writers. *)
        if (reader || !n land 63 = 0) && Clock.now () -. t0 >= c.duration then
          Atomic.set stop true
      done;
      ops.(tid) <- !n;
      try L.close_session s with Sched.Deadline -> ()
    in
    (match c.mode with
    | Spec.Domains -> Sched.run Sched.Domains ~nthreads worker
    | Spec.Fibers seed ->
        Sched.run (Sched.Fibers { seed; switch_every = 4 }) ~nthreads worker);
    Sched.clear_deadline ();
    let elapsed = Clock.now () -. t0 in
    let sum a b = Array.fold_left ( + ) 0 (Array.sub ops a b) in
    let st = Alloc.stats () in
    let scheme =
      (* Same flight-recorder census + drop-lane fold as Cell_runner. *)
      let snap = scheme_stats () in
      match c.mode with
      | Spec.Domains when Trace.enabled () && Trace.sink () = Trace.Flight ->
          let ok, msg = Trace.flight_census () in
          if not ok then failwith ("Longrun: " ^ msg);
          { snap with Stats.trace_dropped = Trace.dropped () }
      | _ -> snap
    in
    {
      reader_tput = float_of_int (sum 0 c.readers) /. elapsed /. 1e6;
      writer_tput = float_of_int (sum c.readers c.writers) /. elapsed /. 1e6;
      peak_unreclaimed = st.Alloc.peak_unreclaimed;
      uaf = st.Alloc.uaf;
      scheme;
      latency_unit =
        (match c.mode with Spec.Fibers _ -> "tick" | Spec.Domains -> "ns");
      reader_latency = Stats.Histogram.summary lat_readers;
      writer_latency = Stats.Histogram.summary lat_writers;
    }
end

(** [with_run ~scheme c k] — the long-running-read cell for one scheme
    in a fresh small-batch domain (see {!Hpbrcu_schemes.Schemes.small}: the
    batch threshold scales down with the scaled key ranges), its outcome
    handed to [k] before the domain is destroyed.  [None] if the scheme
    supports neither list. *)
let with_run ~scheme (c : config) k : 'a option =
  Schemes.with_domain (Schemes.find ~tuning:`Small scheme) (fun (module D) ->
      let module S = D.S in
      let go (module L : Hpbrcu_ds.Ds_intf.MAP) =
        let module R = Run (L) in
        Some (k (R.go c ~scheme_stats:S.stats))
      in
      if scheme = "HP" then go (module Ds.Hm_list.Make (S))
      else if Matrix.supports (module S) Hpbrcu_core.Caps.HHSList then
        go (module Ds.Harris_list.Make_hhs (S))
      else None)

(** [run ~scheme c] — {!with_run} returning the outcome. *)
let run ~scheme c = with_run ~scheme c Fun.id

(** [run_traced ~scheme ~out c] — one long-running-read cell with the
    tracer recording, written to [out] on completion (the input format of
    [smrbench analyze]).  In fiber mode the tracer spools non-lossily and
    the trace is a pure function of the seed; in domain mode the
    flight recorder (DESIGN.md §15) records lossily-but-counted per-domain
    rings merged into calibrated CLOCK_MONOTONIC ns, with the GC track
    riding along, and the file is tagged ["# unit: ns"].  The log is
    written before the cell's domain is destroyed, so teardown drains
    never reach it. *)
let run_traced ~scheme ~out (c : config) : outcome option =
  let unit_ =
    match c.mode with
    | Spec.Fibers _ ->
        Trace.enable ~sink:Trace.Spool ();
        None
    | Spec.Domains ->
        Trace.enable ~sink:Trace.Flight ~ndomains:(c.readers + c.writers) ();
        Some "ns"
  in
  Fun.protect ~finally:Trace.disable (fun () ->
      with_run ~scheme c (fun o ->
          Trace.to_file ?unit_ out (Trace.dump ());
          o))
