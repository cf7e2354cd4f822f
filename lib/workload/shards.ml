(** The shard-isolation experiment ([smrbench shards]): the payoff cell of
    the first-class-domain redesign.

    Two builds of the same sharded hash map run the same workload under
    the same deterministic fault — reader 0 reads only shard 0's keys and
    crashes mid-operation, i.e. pinned inside an epoch critical section:

    - {b isolated}: every shard owns a private reclamation domain
      ({!Hpbrcu_ds.Sharded_hashmap.Make.create}).  The crash strands only
      shard 0's retirements; the other shards' per-domain unreclaimed
      watermarks stay at their fault-free level.
    - {b shared}: identical routing and bucket layout, but all shards
      bound to one domain ({!create_shared}) — the pre-redesign topology.
      The same crash pins the whole map's epoch, and every shard's
      retirements strand behind it.

    The discriminator is the ratio of the shared build's domain peak to
    the worst {e non-crashed} shard's peak in the isolated build; domain
    isolation is demonstrated when it clears {!default_threshold} (the
    chaos harness uses the same style of ratio gate for the EBR
    collapse).  Both runs are pure functions of the seed. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Rng = Hpbrcu_runtime.Rng
module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
module Fault = Hpbrcu_runtime.Fault
module Dom = Hpbrcu_core.Smr_intf.Dom
module Schemes = Hpbrcu_schemes.Schemes
module Ds = Hpbrcu_ds

type params = {
  key_range : int;
  shards : int;
  buckets_per_shard : int;
  readers : int;  (** tid 0 is the crashing shard-0 reader *)
  writers : int;
  reader_ops : int;
  writer_ops : int;
  crash_at : int;  (** reader 0's crashing yield index *)
  seed : int;
  substrate : [ `Fibers | `Domains ];
      (** [`Fibers] (default): the deterministic simulator, where the run
          is a pure function of the seed.  [`Domains]: real
          [Domain.spawn] workers, where the same fault plan's crash parks
          the victim pinned — see [run_build]. *)
}

let default_params =
  {
    key_range = 512;
    shards = 4;
    buckets_per_shard = 16;
    readers = 2;
    writers = 2;
    reader_ops = 100_000;  (* effectively "until the crash" for reader 0 *)
    writer_ops = 6000;
    crash_at = 800;
    seed = 1;
    substrate = `Fibers;
  }

let quick p = { p with writer_ops = 2500 }

(** Per-shard peaks of one build over the measured window. *)
type run = {
  peaks : int array;  (** indexed like the shards *)
  crashed_shard : int;
  crashes : int;
  uaf : int;
  total_ops : int;
}

type result = {
  scheme : string;
  p : params;
  isolated : run;
  shared : run;
  iso_other_max : int;
      (** worst non-crashed-shard peak, isolated build *)
  iso_crashed_peak : int;
  shared_peak : int;
  ratio : float;  (** shared_peak / iso_other_max *)
  ok : bool;
}

let default_threshold = 8.

(** Domain-mode default for the same gate.  The discriminator is the
    same, but the denominator — the worst {e non-crashed} shard's peak —
    is schedule-dependent: under real timesharing a reader can sit
    mid-critical-section in any shard when a writer's batch fills, so
    the non-crashed peaks wander several batches above their fiber-mode
    values.  4x still demonstrates isolation (the shared build strands
    {e everything}); the printed ratio reports the actual magnitude. *)
let default_threshold_domains = 4.

(* One build, one run.  [shared] picks the domain topology; everything
   else — routing, layout, schedule, fault plan — is identical. *)
let run_build ((module X : Hpbrcu_core.Smr_intf.SCHEME), config) ~(p : params)
    ~shared : run =
  let module Sh = Ds.Sharded_hashmap.Make (X) in
  Alloc.reset ();
  Alloc.set_strict false;
  let t =
    if shared then
      Sh.create_shared ~label:"shared" ~shards:p.shards
        ~buckets_per_shard:p.buckets_per_shard config
    else
      Sh.create ~label:"shard" ~shards:p.shards
        ~buckets_per_shard:p.buckets_per_shard config
  in
  let metas = Sh.metas t in
  (* Keys owned by shard 0, for the reader the fault plan kills there. *)
  let shard0_keys =
    Array.of_seq
      (Seq.filter
         (fun k -> Sh.shard_index t k = 0)
         (Seq.init p.key_range Fun.id))
  in
  (* Prefill to 50% before the fault arms (the plan's occurrence counters
     must index the workload proper, as in the chaos harness). *)
  let s = Sh.session t in
  let rng = Rng.create ~seed:(p.seed lxor 0xfeed) in
  let inserted = ref 0 in
  while !inserted < p.key_range / 2 do
    if Sh.insert t s (Rng.int rng p.key_range) 0 then incr inserted
  done;
  Sh.close_session s;
  Alloc.reset_peak ();
  Alloc.reset_owner_peaks ();
  let nthreads = p.readers + p.writers in
  let ops = Array.make nthreads 0 in
  (* Reader 0 crashes at its [crash_at]-th yield, pinned inside shard 0's
     critical section.  Under fibers the scheduler drops its continuation;
     under domains it parks pinned ({!Fault.crash_park}) until every
     survivor has finished, and the survivors start only once it is
     parked, so the stranding window covers their whole retirement
     volume. *)
  let plan =
    {
      Fault.label = "crash-shard0-reader";
      rules =
        [
          {
            Fault.site = Yield;
            tid = 0;
            start = p.crash_at;
            period = 0;
            action = Crash;
          };
        ];
    }
  in
  Fault.install plan;
  let worker tid =
    let s = Sh.session t in
    let rng = Rng.create ~seed:(p.seed + (tid * 104729)) in
    let reader = tid < p.readers in
    Sched.await_crash_victims plan;
    for _ = 1 to if reader then p.reader_ops else p.writer_ops do
      if tid = 0 then
        (* The victim: shard-0 keys only, so the crash lands inside a
           critical section pinned in shard 0's domain. *)
        ignore
          (Sh.get t s shard0_keys.(Rng.int rng (Array.length shard0_keys))
            : bool)
      else if reader then ignore (Sh.get t s (Rng.int rng p.key_range) : bool)
      else begin
        let k = Rng.int rng p.key_range in
        if Rng.bool rng then ignore (Sh.insert t s k 0 : bool)
        else ignore (Sh.remove t s k : bool)
      end;
      ops.(tid) <- ops.(tid) + 1
    done;
    Sh.close_session s
  in
  (match p.substrate with
  | `Fibers ->
      Sched.run (Sched.Fibers { seed = p.seed; switch_every = 4 }) ~nthreads
        worker
  | `Domains -> Sched.run Sched.Domains ~nthreads worker);
  (* Even with a crashed reader, every flight record is merged or counted
     dropped. *)
  ignore (Trace.flight_checked ~who:"Shards" Stats.empty : Stats.snapshot);
  let crashes = Sched.crashed_count () in
  Fault.clear ();
  (* Read the per-domain peaks before destroy releases the slots.  Under
     [shared] every meta is the same domain, so every slot reads the same
     (whole-map) peak. *)
  let peaks = Array.map Dom.peak_unreclaimed metas in
  let uaf = (Alloc.stats ()).Alloc.uaf in
  Sh.destroy ~force:true t;
  {
    peaks;
    crashed_shard = 0;
    crashes;
    uaf;
    total_ops = Array.fold_left ( + ) 0 ops;
  }

(** [run_one ~scheme p] — both builds, same seed; the discriminator and
    its verdict against [threshold]. *)
let run_one ?(threshold = default_threshold) ?(scheme = "RCU") (p : params) :
    result =
  (* Small batches so watermarks track stranding, not the batch floor. *)
  let scheme_config = Schemes.find ~tuning:`Small scheme in
  let isolated = run_build scheme_config ~p ~shared:false in
  let shared = run_build scheme_config ~p ~shared:true in
  let iso_other_max =
    Array.fold_left max 0
      (Array.mapi
         (fun i pk -> if i = isolated.crashed_shard then 0 else pk)
         isolated.peaks)
  in
  let iso_crashed_peak = isolated.peaks.(isolated.crashed_shard) in
  let shared_peak = Array.fold_left max 0 shared.peaks in
  let ratio = float_of_int shared_peak /. float_of_int (max 1 iso_other_max) in
  {
    scheme;
    p;
    isolated;
    shared;
    iso_other_max;
    iso_crashed_peak;
    shared_peak;
    ratio;
    ok =
      ratio >= threshold
      && isolated.crashes = 1
      && shared.crashes = 1
      && isolated.uaf = 0
      && shared.uaf = 0;
  }

let pp ppf (r : result) =
  let pp_peaks ppf pks =
    Array.iteri
      (fun i pk -> Fmt.pf ppf "%s%d" (if i = 0 then "" else "/") pk)
      pks
  in
  Fmt.pf ppf
    "shards %s: %d shards, seed=%d@\n\
    \  isolated: per-shard peaks %a (crashed shard %d; others' max %d), \
     ops=%d@\n\
    \  shared:   domain peak %d, ops=%d@\n\
    \  isolation ratio (shared / worst non-crashed shard): %.1fx %s"
    r.scheme r.p.shards r.p.seed pp_peaks r.isolated.peaks
    r.isolated.crashed_shard r.iso_other_max r.isolated.total_ops
    r.shared_peak r.shared.total_ops r.ratio
    (if r.ok then "(isolated)" else "TOO SMALL")

(** Rows for the report emitter / --stats-json. *)
let record (r : result) =
  Report.record_cell
    [
      ("kind", Report.Json.Str "shards");
      ("scheme", Report.Json.Str r.scheme);
      ("shards", Report.Json.Int r.p.shards);
      ("seed", Report.Json.Int r.p.seed);
      ( "isolated_peaks",
        Report.Json.List
          (Array.to_list (Array.map (fun p -> Report.Json.Int p) r.isolated.peaks))
      );
      ("iso_other_max", Report.Json.Int r.iso_other_max);
      ("iso_crashed_peak", Report.Json.Int r.iso_crashed_peak);
      ("shared_peak", Report.Json.Int r.shared_peak);
      ("ratio", Report.Json.Float r.ratio);
      ("ok", Report.Json.Bool r.ok);
    ]
