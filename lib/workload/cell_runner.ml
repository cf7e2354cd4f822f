(** Generic experiment-cell executor: prefill, spawn workers, apply the
    operation mix, measure throughput and peak unreclaimed blocks. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Rng = Hpbrcu_runtime.Rng
module Clock = Hpbrcu_runtime.Clock
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace

module Make (L : Hpbrcu_ds.Ds_intf.MAP) = struct
  (* Pre-insert [prefill] distinct keys drawn as a random prefix of a
     shuffled permutation (uniform occupancy; avoids degenerate shapes in
     the BST). *)
  let prefill t (c : Spec.cell) =
    let s = L.session t in
    let rng = Rng.create ~seed:(c.seed lxor 0x5eed) in
    let keys = Rng.permutation rng c.key_range in
    for i = 0 to min c.prefill c.key_range - 1 do
      ignore (L.insert t s keys.(i) i : bool)
    done;
    L.close_session s

  (* Per-phase latency histograms.  [now] is the phase clock: virtual
     ticks in fiber mode (deterministic from the seed), nanoseconds in
     domain mode.  Lock-free records, so one histogram set serves all
     workers. *)
  type lat = {
    now : unit -> int;
    get : Stats.Histogram.t;
    ins : Stats.Histogram.t;
    rem : Stats.Histogram.t;
  }

  let make_lat (c : Spec.cell) =
    let now =
      match c.mode with
      | Spec.Fibers _ -> Sched.tick
      | Spec.Domains -> Clock.now_ns
    in
    {
      now;
      get = Stats.Histogram.make ();
      ins = Stats.Histogram.make ();
      rem = Stats.Histogram.make ();
    }

  let lat_unit (c : Spec.cell) =
    match c.mode with Spec.Fibers _ -> "tick" | Spec.Domains -> "ns"

  let one_op t s rng (c : Spec.cell) (lat : lat) =
    let k = Rng.int rng c.key_range in
    let p = Rng.int rng 100 in
    let read_pct, ins_pct =
      match c.workload with
      | Spec.Read_only -> (100, 0)
      | Spec.Read_intensive -> (90, 5)
      | Spec.Read_write -> (50, 25)
      | Spec.Write_only -> (0, 50)
    in
    let t0 = lat.now () in
    (* Op spans bracket whole operations (arg: 0 get / 1 insert / 2
       remove), giving traces a per-operation track above the
       critical-section and checkpoint spans. *)
    if p < read_pct then begin
      Trace.emit Trace.Op_begin 0;
      ignore (L.get t s k : bool);
      Trace.emit Trace.Op_end 0;
      Stats.Histogram.record lat.get (lat.now () - t0)
    end
    else if p < read_pct + ins_pct then begin
      Trace.emit Trace.Op_begin 1;
      ignore (L.insert t s k (k * 3) : bool);
      Trace.emit Trace.Op_end 1;
      Stats.Histogram.record lat.ins (lat.now () - t0)
    end
    else begin
      Trace.emit Trace.Op_begin 2;
      ignore (L.remove t s k : bool);
      Trace.emit Trace.Op_end 2;
      Stats.Histogram.record lat.rem (lat.now () - t0)
    end

  let run ?(create = L.create) (c : Spec.cell)
      ~(scheme_stats : unit -> Stats.snapshot) : Spec.result =
    Alloc.reset ();
    Alloc.set_strict false;
    let t = create () in
    prefill t c;
    Alloc.reset_peak ();
    let lat = make_lat c in
    let stop = Atomic.make false in
    let ops = Array.make c.threads 0 in
    let t0 = Clock.now () in
    (* Arm the starvation rescue: coarse-restarting schemes can starve an
       operation indefinitely (the Figure 1 effect), which would otherwise
       keep a worker from ever reaching its stop check. *)
    (match c.limit with
    | Spec.Duration d -> Sched.set_deadline (t0 +. d +. (d /. 2.))
    | Spec.Ops _ -> ());
    let worker tid =
      let s = L.session t in
      let rng = Rng.create ~seed:(c.seed + (tid * 7919) + 13) in
      (match c.limit with
      | Spec.Ops n ->
          for _ = 1 to n do
            one_op t s rng c lat;
            ops.(tid) <- ops.(tid) + 1
          done
      | Spec.Duration d ->
          let budget_check = 255 in
          let n = ref 0 in
          while not (Atomic.get stop) do
            (try
               one_op t s rng c lat;
               incr n
             with Sched.Deadline -> Atomic.set stop true);
            if !n land budget_check = 0 && Clock.now () -. t0 >= d then
              Atomic.set stop true
          done;
          ops.(tid) <- !n);
      try L.close_session s with Sched.Deadline -> ()
    in
    (match c.mode with
    | Spec.Domains -> Sched.run Sched.Domains ~nthreads:c.threads worker
    | Spec.Fibers seed ->
        Sched.run (Sched.Fibers { seed; switch_every = 4 }) ~nthreads:c.threads worker);
    Sched.clear_deadline ();
    let elapsed = Clock.now () -. t0 in
    let total_ops = Array.fold_left ( + ) 0 ops in
    let st = Alloc.stats () in
    {
      Spec.total_ops;
      elapsed;
      throughput = float_of_int total_ops /. elapsed /. 1e6;
      peak_unreclaimed = st.Alloc.peak_unreclaimed;
      final_unreclaimed = st.Alloc.unreclaimed;
      uaf = st.Alloc.uaf;
      (* Domains-mode cells with the flight recorder armed fold the
         per-domain drop lanes into the snapshot and assert the census
         identity (merged + dropped = emitted) — the recorder must never
         lose events silently. *)
      scheme = Trace.flight_checked ~who:"Cell_runner" (scheme_stats ());
      latency =
        {
          Spec.unit_ = lat_unit c;
          get = Stats.Histogram.summary lat.get;
          insert = Stats.Histogram.summary lat.ins;
          remove = Stats.Histogram.summary lat.rem;
        };
    }
end
