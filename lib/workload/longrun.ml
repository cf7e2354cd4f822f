(** The long-running-read workload (Figures 1, 6, 22, B.3, C.3).

    Half the threads run [get] over the whole (large) key range of a sorted
    list — operations whose length grows with the range — while the other
    half insert/remove keys in a small hot region at the head of the list,
    generating heavy reclamation pressure.  Measured: the readers'
    throughput (plotted as a ratio to NR) and the peak number of
    unreclaimed blocks.

    What this module adds to the cell engine ({!Cell_runner.Make.drive})
    is the workload's body ({!Body}: the 50% prefill, the per-worker RNG
    seed and the reader/writer step) and {!cell}, the one function that
    builds, drives and reads a long-running-read cell: the allocator
    reset, the domain or domains and the map of a {!topology} (the list
    the scheme runs, {!Matrix.list_for}: HHSList, or HMList where hazard
    pointers cannot traverse optimistically, as in §6; or the sharded hash
    map over it), the prefill, the drive and the {!books}.  Three
    harnesses call it: {!with_run} here under a wall-clock window, and
    the robustness harnesses — {!Chaos} and the hunt runner in lib/check
    — under op budgets, faults and their own schedules, so a seed draws
    the same keys everywhere; both judge the books with {!Oracle.judge}. *)

module Alloc = Hpbrcu_alloc.Alloc
module Rng = Hpbrcu_runtime.Rng
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
module Schemes = Hpbrcu_schemes.Schemes
module Caps = Hpbrcu_core.Caps
module Smr_intf = Hpbrcu_core.Smr_intf
module Dom = Smr_intf.Dom
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

(* ------------------------------------------------------------------ *)
(* One cell                                                            *)
(* ------------------------------------------------------------------ *)

(** What a cell's map is, and how many reclamation domains it spans. *)
type topology =
  | One  (** the list {!Matrix.list_for} picks, in one domain *)
  | Isolated
      (** {!Ds.Sharded_hashmap}, {!shards} × {!buckets_per_shard} over the
          same list, one domain per shard *)
  | Shared  (** the same sharded map, every shard in one domain *)

let shards = 4
let buckets_per_shard = 16

(** The books of one cell, read once its workers are joined. *)
type books = {
  run : Cell_runner.run;
  alloc : Alloc.stats;
  dom_peaks : int array;
      (** peak unreclaimed per distinct domain, in shard order: the
          allocator's peak for [One] *)
  census : bool * string;
      (** the allocator's census, joined by the flight recorder's when
          the tracer records into it; the message is "" when clean *)
  snap : Stats.snapshot;  (** typed scheme counters, summed over domains *)
}

(** The cell's map, still live, handed over with the books: what a
    census needs. *)
module type LIVE = sig
  include Ds.Ds_intf.MAP

  val it : t

  val sentinels : int
  (** list-head blocks the map allocated *)

  val dom_peaks : unit -> int array
  (** {!books.dom_peaks}, read now *)

  val teardown : unit -> unit
  (** destroy every domain of the map now; the cell's own teardown then
      skips them *)
end

let census () =
  let checks =
    Alloc.census ()
    :: (if Trace.enabled () then [ Trace.flight_census () ] else [])
  in
  ( List.for_all fst checks,
    String.concat "; "
      (List.filter_map (fun (ok, m) -> if ok then None else Some m) checks) )

(** [cell ~mode ~impl ~topology ~limit ~seed ~key_range ~readers ~writers
    ~hot_width k] — the long-running-read cell every harness runs: reset
    the allocator (counting mode), build [impl]'s domain or domains and
    the [topology]'s map over the list its scheme runs, prefill, drive
    the {!Body} under [limit] (with [plan], [ticks] and [lat] as
    {!Cell_runner.Make.drive} takes them), read the {!books} and hand
    them with the live map to [k].  The domains are torn down when [k]
    returns or raises.  A caller that traces arms the tracer first. *)
let cell ~mode ~impl:((module X : Smr_intf.SCHEME), config) ~topology ~limit
    ?ticks ?plan ?lat ~seed ~key_range ~readers ~writers ~hot_width k =
  let caps = X.caps config in
  let module B = (val Matrix.list_for caps) in
  Alloc.reset ();
  Alloc.set_strict false;
  let doms =
    match topology with
    | One -> [| X.create ~label:caps.Caps.name config |]
    | Isolated ->
        Array.init shards (fun i ->
            X.create ~label:(Printf.sprintf "shard%d" i) config)
    | Shared -> [| X.create ~label:"shared" config |]
  in
  let teardown () =
    Array.iter
      (fun d -> if not (Dom.destroyed (X.dom d)) then X.destroy ~force:true d)
      doms
  in
  let dom_peaks () =
    if topology = One then [| Alloc.peak_unreclaimed () |]
    else Array.map (fun d -> Dom.peak_unreclaimed (X.dom d)) doms
  in
  Fun.protect ~finally:teardown (fun () ->
      let (module M : LIVE) =
        match topology with
        | One ->
            let module L = B (struct include X let it = doms.(0) end) in
            (module struct
              include L

              let it = L.create ()
              let sentinels = 1
              let dom_peaks = dom_peaks
              let teardown = teardown
            end)
        | Isolated | Shared ->
            let module Sh = Ds.Sharded_hashmap.Make_gen (B) (X) in
            let t = Sh.create ~shards ~buckets_per_shard doms in
            (module struct
              include Sh

              let name = "ShardedHashMap"
              let create () = t
              let it = t
              let sentinels = shards * buckets_per_shard
              let dom_peaks = dom_peaks
              let teardown = teardown
            end)
      in
      let module R = Body (M) in
      R.prefill ~key_range ~seed M.it;
      let run =
        R.drive ~mode ~limit ?ticks ?plan ?lat ~seed ~readers ~writers
          ~key_range ~hot_width M.it
      in
      k
        {
          run;
          alloc = Alloc.stats ();
          dom_peaks = dom_peaks ();
          census = census ();
          snap =
            Array.fold_left
              (fun acc d -> Stats.add acc (X.stats d))
              Stats.empty doms;
        }
        (module M : LIVE))

(** [with_run ~scheme c k] — the long-running-read cell for one scheme
    in a fresh small-batch domain (see {!Hpbrcu_schemes.Schemes.small}: the
    batch threshold scales down with the scaled key ranges), over the list
    the scheme runs, its outcome handed to [k] before the domain is
    destroyed.  Every worker runs until [c.duration] elapses. *)
let with_run ~scheme (c : config) k =
  let readers = Stats.Histogram.make () and writers = Stats.Histogram.make () in
  cell
    ~mode:(Cell_runner.sched_mode c.mode)
    ~impl:(Schemes.find ~tuning:`Small scheme)
    ~topology:One ~limit:(Cell_runner.Duration c.duration)
    ~lat:[| readers; writers; writers |]
    ~seed:c.seed ~key_range:c.key_range ~readers:c.readers ~writers:c.writers
    ~hot_width:c.hot_width
    (fun b _ ->
      let r = b.run in
      if r.exhausted then failwith "Longrun: a worker exhausted a registry";
      let elapsed = float_of_int r.elapsed_ns *. 1e-9 in
      let sum a b = Array.fold_left ( + ) 0 (Array.sub r.ops a b) in
      k
        {
          reader_tput = float_of_int (sum 0 c.readers) /. elapsed /. 1e6;
          writer_tput = float_of_int (sum c.readers c.writers) /. elapsed /. 1e6;
          peak_unreclaimed = b.alloc.Alloc.peak_unreclaimed;
          uaf = b.alloc.Alloc.uaf;
          scheme = Trace.flight_checked ~who:"Longrun" b.snap;
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
