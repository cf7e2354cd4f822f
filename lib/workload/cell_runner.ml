(** The cell engine: one worker loop for every harness.

    A figure cell ({!Make.run}: prefill, then the op mix), the
    long-running-read body ({!Longrun}), a chaos cell ({!Chaos}) and a
    hunt case (lib/check's runner) all run their workers through
    {!Make.drive}.  The harness brings the map, how a worker draws its
    next operation ({!Op}), the stop rule ({!limit}), a fault plan and
    the substrate (a {!Hpbrcu_runtime.Sched.mode}); the engine owns the
    rest — each worker's session and RNG, the deadline, the [Op_begin] /
    [Op_end] spans and per-op latency histograms, catching
    [Sched.Deadline] and [Registry.Exhausted], crash victims, the last
    virtual tick and the elapsed time, and the one [Sched.run] call. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Rng = Hpbrcu_runtime.Rng
module Clock = Hpbrcu_runtime.Clock
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
module Fault = Hpbrcu_runtime.Fault
module Registry = Hpbrcu_schemes.Registry

(** [sched_mode m] — the scheduler a cell runs under: the fiber simulator
    (a switch every 4 yields on average) or real domains. *)
let sched_mode : Spec.mode -> Sched.mode = function
  | Spec.Fibers seed -> Sched.Fibers { seed; switch_every = 4 }
  | Spec.Domains -> Sched.Domains

(** [trace_sink mode] — the tracer's sink for a run under [mode], and the
    unit its trace file is tagged with: the non-lossy spool in virtual
    ticks on fibers (the log is a pure function of the seed), or the
    flight recorder's per-domain rings merged into calibrated ns on
    domains (DESIGN.md §15), tagged ["ns"]. *)
let trace_sink : Sched.mode -> Trace.sink * string option = function
  | Sched.Fibers _ -> (Trace.Spool, None)
  | Sched.Domains -> (Trace.Flight, Some "ns")

(** Operations, packed into an int so that drawing one allocates nothing:
    the key above two bits of kind.  The kind — 0 get, 1 insert, 2
    remove — is also the op span's arg and the index of the latency
    histogram the op lands in. *)
module Op = struct
  type t = int

  let get k = k lsl 2
  let insert k = (k lsl 2) lor 1
  let remove k = (k lsl 2) lor 2
end

(** When the workers stop. *)
type limit =
  | Ops of (int -> int)
      (** [budget tid] ops per worker.  A crash victim of the plan
          ({!Fault.crash_tids}) has no budget: it runs until its crash
          rule fires or the deadline aborts it. *)
  | Duration of float
      (** seconds of wall clock, checked after every op *)

(** [wall_budget_s ticks] — a tick budget's wall-clock dual on domains:
    the virtual ticks at the fault clock's exchange rate, floored at
    10 s so a slow machine never turns an honest cell into a
    termination violation.  8M ticks at the default 1 us/tick is a 10 s
    ceiling, 24M is 24 s. *)
let wall_budget_s ticks =
  Float.max 10. (float_of_int ticks *. float_of_int Fault.tick_ns *. 1e-9)

(** What {!Make.drive} returns; the harness reads the allocator and its
    domains itself. *)
type run = {
  ops : int array;  (** completed ops per tid *)
  deadline_hit : bool;  (** some worker was aborted by the deadline *)
  exhausted : bool;  (** some worker hit {!Registry.Exhausted} *)
  ticks : int;
      (** the last virtual tick a returning worker saw (0 on domains) *)
  elapsed_ns : int;  (** wall time from arming the deadline to the join *)
  crashes : int;  (** workers the plan crashed *)
  injected : Fault.injected;
}

module Make (L : Hpbrcu_ds.Ds_intf.MAP) = struct
  (** [drive ~mode ~limit ~nthreads ~rng_seed ~pick t] — run [nthreads]
      workers over [t] under [mode] until [limit].  Worker [tid] opens a
      session, seeds its RNG with [rng_seed tid], and loops: draw an op
      with [pick tid rng], run it inside its span, record its latency
      in [lat.(kind)] (virtual ticks on fibers, ns on domains; three
      fresh histograms by default), count it.  A worker that ends its
      budget closes its session; one aborted by the deadline or a
      registry exhaustion leaves it open for the domain's teardown.

      The deadline follows the limit and the substrate: the end of a
      [Duration] window (the starvation rescue for an op that never
      finishes), or for [Ops] the tick budget [ticks] — a virtual-tick
      deadline on fibers, {!wall_budget_s} on domains; none when
      [ticks] is absent.  [plan] is installed for the run and cleared
      after it; every worker that is not one of its crash victims first
      waits for them to be down ({!Sched.await_crash_victims}). *)
  let drive ~mode ~limit ?ticks ?(plan = Fault.no_faults)
      ?(lat = Array.init 3 (fun _ -> Stats.Histogram.make ())) ~nthreads
      ~rng_seed ~(pick : int -> Rng.t -> Op.t) (t : L.t) : run =
    (* Single-writer per tid, read after the join. *)
    let ops = Array.make nthreads 0 in
    let stop = Atomic.make false in
    let deadline_hit = Atomic.make false in
    let exhausted = Atomic.make false in
    let end_tick = Atomic.make 0 in
    let victims = Fault.crash_tids plan in
    let now =
      match mode with Sched.Fibers _ -> Sched.tick | Sched.Domains -> Clock.now_ns
    in
    Fault.install plan;
    let t0 = Clock.now_ns () in
    let stop_at =
      match limit with
      | Duration d -> t0 + int_of_float (d *. 1e9)
      | Ops _ -> max_int
    in
    (match (limit, ticks, mode) with
    | Duration d, _, _ -> Sched.set_deadline (Clock.now () +. d)
    | Ops _, Some n, Sched.Fibers _ -> Sched.set_tick_deadline n
    | Ops _, Some n, Sched.Domains ->
        Sched.set_deadline (Clock.now () +. wall_budget_s n)
    | Ops _, None, _ -> ());
    (* The Duration stop check, after every op: has the window ended?  On
       domains the op's closing latency stamp is that clock, so the check
       costs no extra read. *)
    let over =
      match mode with
      | Sched.Domains -> fun l1 -> l1 >= stop_at
      | Sched.Fibers _ -> fun _ -> Clock.now_ns () >= stop_at
    in
    let worker tid =
      let s = L.session t in
      let rng = Rng.create ~seed:(rng_seed tid) in
      (* One op in its span; returns the latency clock after it.  A
         deadline abort leaves the span open, which Perfetto renders as
         running to the end of the trace — exactly what happened. *)
      let step () =
        let op = pick tid rng in
        let kind = op land 3 and k = op lsr 2 in
        let l0 = now () in
        Trace.emit Trace.Op_begin kind;
        (match kind with
        | 0 -> ignore (L.get t s k : bool)
        | 1 -> ignore (L.insert t s k 0 : bool)
        | _ -> ignore (L.remove t s k : bool));
        Trace.emit Trace.Op_end kind;
        let l1 = now () in
        Stats.Histogram.record lat.(kind) (l1 - l0);
        ops.(tid) <- ops.(tid) + 1;
        l1
      in
      (try
         Sched.await_crash_victims plan;
         (match limit with
         | Ops budget ->
             for _ = 1 to if List.mem tid victims then max_int else budget tid do
               ignore (step () : int)
             done
         | Duration _ ->
             while not (Atomic.get stop) do
               if over (step ()) then Atomic.set stop true
             done);
         L.close_session s
       with
      | Sched.Deadline ->
          Atomic.set deadline_hit true;
          Atomic.set stop true
      | Registry.Exhausted _ -> Atomic.set exhausted true);
      if Sched.tick () > Atomic.get end_tick then Atomic.set end_tick (Sched.tick ())
    in
    Fun.protect
      ~finally:(fun () ->
        Sched.clear_deadline ();
        Sched.clear_tick_deadline ();
        Fault.clear ())
      (fun () ->
        Sched.run mode ~nthreads worker;
        {
          ops;
          deadline_hit = Atomic.get deadline_hit;
          exhausted = Atomic.get exhausted;
          ticks = Atomic.get end_tick;
          elapsed_ns = Clock.now_ns () - t0;
          crashes = Sched.crashed_count ();
          injected = Fault.injected ();
        })

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

  (** [run c ~scheme_stats] — one figure cell: prefill, then every worker
      draws a uniform key and an op from [c.workload]'s mix. *)
  let run ?(create = L.create) (c : Spec.cell)
      ~(scheme_stats : unit -> Stats.snapshot) : Spec.result =
    Alloc.reset ();
    Alloc.set_strict false;
    let t = create () in
    prefill t c;
    Alloc.reset_peak ();
    let read_pct, ins_pct =
      match c.workload with
      | Spec.Read_only -> (100, 0)
      | Spec.Read_intensive -> (90, 5)
      | Spec.Read_write -> (50, 25)
      | Spec.Write_only -> (0, 50)
    in
    let pick _tid rng =
      let k = Rng.int rng c.key_range in
      let p = Rng.int rng 100 in
      if p < read_pct then Op.get k
      else if p < read_pct + ins_pct then Op.insert k
      else Op.remove k
    in
    let lat = Array.init 3 (fun _ -> Stats.Histogram.make ()) in
    let r =
      drive ~mode:(sched_mode c.mode)
        ~limit:
          (match c.limit with
          | Spec.Ops n -> Ops (fun _ -> n)
          | Spec.Duration d -> Duration d)
        ~lat ~nthreads:c.threads
        ~rng_seed:(fun tid -> c.seed + (tid * 7919) + 13)
        ~pick t
    in
    if r.exhausted then failwith "Cell_runner: a worker exhausted a registry";
    let elapsed = float_of_int r.elapsed_ns *. 1e-9 in
    let total_ops = Array.fold_left ( + ) 0 r.ops in
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
          Spec.unit_ =
            (match c.mode with Spec.Fibers _ -> "tick" | Spec.Domains -> "ns");
          get = Stats.Histogram.summary lat.(0);
          insert = Stats.Histogram.summary lat.(1);
          remove = Stats.Histogram.summary lat.(2);
        };
    }
end
