(** Experiment-cell specifications and results (§6 Methodology).

    A {e cell} is one point of one plot: a (data structure, scheme,
    workload, key range, thread count) combination run for a fixed time or
    op budget, measuring throughput and the peak number of retired yet
    unreclaimed blocks. *)

type workload =
  | Read_only  (** 100% get *)
  | Read_intensive  (** 90% get, 5% insert, 5% remove *)
  | Read_write  (** 50% get, 25% insert, 25% remove *)
  | Write_only  (** 50% insert, 50% remove *)

let workload_name = function
  | Read_only -> "ro"
  | Read_intensive -> "ri"
  | Read_write -> "rw"
  | Write_only -> "wo"

(** The appendix's grid order. *)
let all_workloads = [ Write_only; Read_write; Read_intensive; Read_only ]

type mode =
  | Domains  (** real domains; wall-clock throughput *)
  | Fibers of int  (** deterministic simulator with this seed *)

type limit =
  | Duration of float  (** seconds *)
  | Ops of int  (** operations per thread (deterministic runs) *)

type cell = {
  threads : int;
  key_range : int;
  prefill : int;  (** elements inserted before measuring *)
  workload : workload;
  limit : limit;
  mode : mode;
  seed : int;
}

let cell ?(threads = 4) ?(key_range = 1024) ?prefill ?(workload = Read_write)
    ?(limit = Duration 0.15) ?(mode = Domains) ?(seed = 1) () =
  let prefill = match prefill with Some p -> p | None -> key_range / 2 in
  { threads; key_range; prefill; workload; limit; mode; seed }

module Stats = Hpbrcu_runtime.Stats

(** Per-phase operation-latency summaries for one cell.  Units are virtual
    ticks in fiber mode and nanoseconds in domain mode ([unit_] says
    which); tick-based summaries are deterministic from the seed. *)
type latency = {
  unit_ : string;  (** ["tick"] or ["ns"] *)
  get : Stats.Histogram.summary;
  insert : Stats.Histogram.summary;
  remove : Stats.Histogram.summary;
}

type result = {
  total_ops : int;
  elapsed : float;  (** seconds *)
  throughput : float;  (** Mop/s *)
  peak_unreclaimed : int;
  final_unreclaimed : int;
  uaf : int;
  scheme : Stats.snapshot;  (** typed scheme counters *)
  latency : latency;
}
