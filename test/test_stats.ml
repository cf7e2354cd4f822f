(* The observability layer (DESIGN.md §7): histogram bucket geometry and
   percentile extraction, sharded counters, the tracer's spool sink, the
   registry-exhaustion bound, and — the headline property — that a fiber
   run's trace and stats snapshot are a pure function of the seed. *)

module Stats = Hpbrcu_runtime.Stats
module Trace = Hpbrcu_runtime.Trace
module Flight = Hpbrcu_runtime.Flight
module Sched = Hpbrcu_runtime.Sched
module Registry = Hpbrcu_schemes.Registry
module H = Stats.Histogram
module W = Hpbrcu_workload

(* ------------------------------------------------------------------ *)
(* Histogram bucket geometry                                           *)
(* ------------------------------------------------------------------ *)

(* Values below [sub] land in their own unit bucket: exact percentiles. *)
let test_buckets_exact_below_sub () =
  for v = 0 to H.sub - 1 do
    Alcotest.(check int) "identity bucket" v (H.bucket_of v);
    Alcotest.(check int) "exact lower bound" v (H.lower_bound v)
  done

(* lower_bound inverts bucket_of on every bucket boundary. *)
let test_bucket_roundtrip () =
  for i = 0 to H.nbuckets - 1 do
    Alcotest.(check int)
      (Printf.sprintf "bucket %d" i)
      i
      (H.bucket_of (H.lower_bound i))
  done

(* bucket_of is monotone and reporting a bucket's lower bound under-reads
   the true value by at most the advertised 12.5% relative error. *)
let test_bucket_error_bound () =
  let probe v =
    let b = H.bucket_of v in
    let lo = H.lower_bound b in
    Alcotest.(check bool) "lower_bound <= v" true (lo <= v);
    Alcotest.(check bool)
      (Printf.sprintf "error bound at %d" v)
      true
      (float_of_int (v - lo) <= (0.125 *. float_of_int v) +. 1e-9);
    if b + 1 < H.nbuckets then
      Alcotest.(check bool) "below next bucket" true (v < H.lower_bound (b + 1))
  in
  List.iter probe
    [ 0; 1; 15; 16; 17; 31; 32; 33; 100; 1000; 12345; (1 lsl 20) + 7; max_int / 2 ];
  (* Monotone across a dense range spanning several octaves. *)
  for v = 0 to 5000 do
    Alcotest.(check bool) "monotone" true (H.bucket_of v <= H.bucket_of (v + 1))
  done

(* ------------------------------------------------------------------ *)
(* Percentile extraction                                               *)
(* ------------------------------------------------------------------ *)

let test_percentiles_exact_small () =
  let h = H.make () in
  for v = 0 to 9 do
    for _ = 1 to 10 do
      H.record h v
    done
  done;
  let s = H.summary h in
  Alcotest.(check int) "count" 100 s.H.count;
  Alcotest.(check int) "sum" 450 s.H.sum;
  Alcotest.(check int) "p50" 4 s.H.p50;
  Alcotest.(check int) "p90" 8 s.H.p90;
  Alcotest.(check int) "p99" 9 s.H.p99;
  Alcotest.(check int) "max" 9 s.H.max

let test_percentiles_quantized () =
  let h = H.make () in
  H.record h 1000;
  let s = H.summary h in
  Alcotest.(check int) "count" 1 s.H.count;
  (* Percentiles report the bucket's lower bound; max is tracked exactly. *)
  Alcotest.(check int) "p50 = bucket floor" (H.lower_bound (H.bucket_of 1000)) s.H.p50;
  Alcotest.(check int) "p99 = p50 (one sample)" s.H.p50 s.H.p99;
  Alcotest.(check int) "max exact" 1000 s.H.max

let test_percentiles_edges () =
  let h = H.make () in
  Alcotest.(check bool) "empty summary" true (H.summary h = H.empty_summary);
  H.record h (-5);
  (* Negative samples clamp to 0 rather than corrupting the layout. *)
  let s = H.summary h in
  Alcotest.(check int) "clamped count" 1 s.H.count;
  Alcotest.(check int) "clamped p50" 0 s.H.p50;
  Alcotest.(check int) "clamped max" 0 s.H.max;
  H.reset h;
  Alcotest.(check bool) "reset" true (H.summary h = H.empty_summary)

(* ------------------------------------------------------------------ *)
(* Sharded counters                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_shards_sum () =
  let c = Stats.Counter.make () in
  Stats.Counter.incr c;
  (* bumped outside any worker *)
  Sched.run
    (Sched.Fibers { seed = 3; switch_every = 1 })
    ~nthreads:4
    (fun _ ->
      for _ = 1 to 100 do
        Stats.Counter.incr c;
        Sched.yield ()
      done);
  Alcotest.(check int) "sum over shards" 401 (Stats.Counter.value c);
  Stats.Counter.add c 9;
  Alcotest.(check int) "add" 410 (Stats.Counter.value c);
  Stats.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Stats.Counter.value c)

(* ------------------------------------------------------------------ *)
(* Tracer enable/disable                                               *)
(* ------------------------------------------------------------------ *)

let test_disabled_emit_noop () =
  Trace.enable ();
  for i = 0 to 19 do
    Trace.emit Trace.Retire i
  done;
  let recs = Trace.dump () in
  Alcotest.(check int) "all kept" 20 (List.length recs);
  List.iter
    (fun r -> Alcotest.(check int) "outside-worker tid" (-1) r.Trace.tid)
    recs;
  Trace.disable ();
  (* Disabled: emit is a no-op, the old dump stays readable. *)
  Trace.emit Trace.Retire 99;
  Alcotest.(check int) "no emit when disabled" 20 (List.length (Trace.dump ()));
  Alcotest.(check int) "no drop when disabled" 0 (Trace.dropped ())

let test_trace_enable_clears () =
  Trace.enable ~capacity:8 ();
  Trace.emit Trace.Rollback 0;
  Trace.enable ~capacity:8 ();
  Alcotest.(check int) "enable clears old spools" 0 (List.length (Trace.dump ()));
  Trace.disable ()

(* ------------------------------------------------------------------ *)
(* Event-code table and decoder                                        *)
(* ------------------------------------------------------------------ *)

(* The event table is hand-maintained; this checks that it lists the
   constructors in code order, that the decoder inverts the encoder and
   that no two events share a name. *)
let test_event_code_roundtrip () =
  Alcotest.(check int) "all_events covers every code" Trace.n_event_codes
    (List.length Trace.all_events);
  List.iteri
    (fun i ev ->
      Alcotest.(check int) "all_events is in code order" i (Trace.event_code ev);
      Alcotest.(check bool)
        (Printf.sprintf "decode(encode %d)" i)
        true
        (Trace.event_of_code (Trace.event_code ev) = ev))
    Trace.all_events;
  let names = List.map Trace.event_name Trace.all_events in
  Alcotest.(check int) "event names are distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun bad ->
      try
        ignore (Trace.event_of_code bad : Trace.event);
        Alcotest.fail "event_of_code accepted an out-of-range code"
      with Invalid_argument _ -> ())
    [ -1; Trace.n_event_codes; Trace.n_event_codes + 7; max_int ]

(* ------------------------------------------------------------------ *)
(* Min/max gauges                                                      *)
(* ------------------------------------------------------------------ *)

let test_gauge () =
  let g = Stats.Gauge.make () in
  Alcotest.(check bool) "fresh gauge unobserved" false (Stats.Gauge.observed g);
  Alcotest.(check int) "unobserved max reads 0" 0 (Stats.Gauge.maximum g);
  Alcotest.(check int) "unobserved min reads 0" 0 (Stats.Gauge.minimum g);
  List.iter (Stats.Gauge.observe g) [ 5; 2; 9; 9; 3 ];
  Alcotest.(check bool) "observed" true (Stats.Gauge.observed g);
  Alcotest.(check int) "max watermark" 9 (Stats.Gauge.maximum g);
  Alcotest.(check int) "min watermark" 2 (Stats.Gauge.minimum g);
  Stats.Gauge.reset g;
  Alcotest.(check int) "reset clears" 0 (Stats.Gauge.maximum g);
  (* Snapshot merge takes the max of gauge fields (not the sum). *)
  let a = { Stats.empty with max_epoch_lag = 3; max_signals_inflight = 1 } in
  let b = { Stats.empty with max_epoch_lag = 7; max_signals_inflight = 0 } in
  let m = Stats.add a b in
  Alcotest.(check int) "add merges max_epoch_lag by max" 7 m.Stats.max_epoch_lag;
  Alcotest.(check int) "add merges inflight by max" 1
    m.Stats.max_signals_inflight;
  (* And the fields flow into the machine-readable form. *)
  let fields = Stats.to_fields ~keep_zeros:true m in
  Alcotest.(check bool) "max_epoch_lag in to_fields" true
    (List.mem_assoc "max_epoch_lag" fields);
  Alcotest.(check bool) "max_signals_inflight in to_fields" true
    (List.mem_assoc "max_signals_inflight" fields)

(* ------------------------------------------------------------------ *)
(* Spool sink (the store's virtual-clock path)                         *)
(* ------------------------------------------------------------------ *)

(* Non-lossy growth: one fiber's ring grows past the hardware sink's
   preallocated 2^16 records (a traced HP-BRCU longrun writer emits
   ~130k), nothing dropped, order preserved. *)
let test_spool_growth () =
  Trace.enable ~sink:Trace.Spool ();
  let n = (2 * Flight.default_capacity) + 5 in
  for i = 0 to n - 1 do
    Trace.emit2 Trace.Retire i (i * 2)
  done;
  let recs = Trace.dump () in
  Trace.disable ();
  Alcotest.(check int) "all events kept" n (List.length recs);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ());
  List.iteri
    (fun i r ->
      if i < 5 || i > n - 5 then begin
        Alcotest.(check int) "arg in order" i r.Trace.arg;
        Alcotest.(check int) "arg2 correlates" (i * 2) r.Trace.arg2
      end)
    recs

(* Bounded: the per-thread record bound is rounded up to a power of two
   (10 -> 16); past it the ring wraps — the LAST 16 events survive and
   the rest are counted. *)
let test_spool_bound () =
  Trace.enable ~capacity:10 ~sink:Trace.Spool ();
  for i = 0 to 24 do
    Trace.emit Trace.Retire i
  done;
  let recs = Trace.dump () in
  Trace.disable ();
  Alcotest.(check int) "kept = rounded bound" 16 (List.length recs);
  Alcotest.(check int) "dropped counted" 9 (Trace.dropped ());
  Alcotest.(check (list int))
    "the LAST events survive"
    (List.init 16 (fun i -> 9 + i))
    (List.map (fun r -> r.Trace.arg) recs)

(* to_file/read_file invert each other. *)
let test_trace_file_roundtrip () =
  Trace.enable ~sink:Trace.Spool ();
  List.iteri
    (fun i ev -> Trace.emit2 ev i (1000 + i))
    Trace.all_events;
  let recs = Trace.dump () in
  Trace.disable ();
  let path = Filename.temp_file "smrbench" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.to_file path recs;
      let back = Trace.read_file path in
      Alcotest.(check bool) "read_file inverts to_file" true (recs = back))

(* ------------------------------------------------------------------ *)
(* Registry exhaustion never moves the high-water mark                 *)
(* ------------------------------------------------------------------ *)

let test_shields_exhaustion () =
  let t = Registry.Shields.create () in
  let all =
    Array.init Registry.Shields.max_shields (fun _ -> Registry.Shields.alloc t)
  in
  let hwm () = Atomic.get t.Registry.Table.hwm in
  Alcotest.(check int) "full" Registry.Shields.max_shields (hwm ());
  for _ = 1 to 3 do
    (try
       ignore (Registry.Shields.alloc t : Registry.Shields.shield);
       Alcotest.fail "alloc past capacity succeeded"
     with Registry.Exhausted _ -> ());
    (* The regression: a fetch_and_add here kept growing hwm on every
       failed alloc, silently masked by downstream clamps. *)
    Alcotest.(check int) "hwm untouched by failure" Registry.Shields.max_shields
      (hwm ())
  done;
  Registry.Shields.release all.(7);
  let s = Registry.Shields.alloc t in
  Alcotest.(check int) "recycled via free list" 7 s.Registry.Shields.idx;
  Alcotest.(check int) "hwm still untouched" Registry.Shields.max_shields (hwm ())

(* The 1025th shield opens the table's second 1024-slot chunk: a protect
   on it shows in [snapshot], and its released index comes back through
   the free list on the same cell. *)
let test_shields_second_chunk () =
  let module S = Registry.Shields in
  let module Idset = Hpbrcu_core.Idset in
  Hpbrcu_alloc.Alloc.reset ();
  let t = S.create () in
  let all = Array.init (S.chunk_slots + 1) (fun _ -> S.alloc t) in
  let s = all.(S.chunk_slots) in
  Alcotest.(check int) "1025th shield is index 1024" 1024 s.S.idx;
  Alcotest.(check int) "in chunk 1" 1 (s.S.idx lsr S.chunk_bits);
  let b = Hpbrcu_alloc.Alloc.block () in
  S.protect s b;
  let ids = Idset.create () in
  let snapshot () =
    S.snapshot t ids;
    Idset.sort ids;
    Idset.length ids
  in
  Alcotest.(check int) "one protected id" 1 (snapshot ());
  Alcotest.(check bool) "chunk-1 protect in snapshot" true
    (Idset.mem ids (Hpbrcu_alloc.Block.id b));
  S.release s;
  Alcotest.(check int) "release empties it" 0 (snapshot ());
  let s' = S.alloc t in
  Alcotest.(check int) "chunk-1 index recycled via free list" s.S.idx s'.S.idx;
  Alcotest.(check bool) "same cell" true (s'.S.slot == s.S.slot);
  Alcotest.(check int) "hwm untouched" (S.chunk_slots + 1) (Atomic.get t.Registry.Table.hwm);
  S.protect s' b;
  S.reset t;
  Alcotest.(check int) "reset empties chunk 1" 0 (snapshot ());
  Hpbrcu_alloc.Alloc.reset ()

(* Building a shield chunk forces no minor collection: a 1024-slot chunk
   is born in the major heap, and [Layout.strided_init] seeds it with an
   immediate, not with a young block that [Array.make] would first have
   to promote. *)
let test_chunk_build_no_minor_gc () =
  let module S = Registry.Shields in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let tables =
    Array.init 8 (fun _ ->
        let t = S.create () in
        ignore (S.alloc t : S.shield);
        t)
  in
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  ignore (Sys.opaque_identity tables);
  Alcotest.(check int) "minor collections" 0 (after - before)

let test_participants_exhaustion () =
  let t = Registry.Participants.create () in
  let idxs =
    Array.init Registry.Participants.capacity (fun i ->
        Registry.Participants.add t i)
  in
  let hwm () = Atomic.get t.Registry.Table.hwm in
  Alcotest.(check int) "full" Registry.Participants.capacity (hwm ());
  for _ = 1 to 3 do
    (try
       ignore (Registry.Participants.add t 0 : int);
       Alcotest.fail "add past capacity succeeded"
     with Registry.Exhausted _ -> ());
    Alcotest.(check int) "hwm untouched by failure"
      Registry.Participants.capacity (hwm ())
  done;
  Registry.Participants.remove t idxs.(5);
  Alcotest.(check int) "recycled via free list" idxs.(5)
    (Registry.Participants.add t 42);
  Alcotest.(check int) "hwm still untouched" Registry.Participants.capacity
    (hwm ())

(* ------------------------------------------------------------------ *)
(* Determinism: trace and snapshot are pure functions of the seed      *)
(* ------------------------------------------------------------------ *)

let run_traced () =
  (* Each cell runs in a fresh domain, so both traced runs start from the
     same world state; the log is taken before the domain's teardown. *)
  Trace.enable ();
  let cell =
    W.Spec.cell ~threads:4 ~key_range:128 ~prefill:64 ~workload:W.Spec.Read_write
      ~limit:(W.Spec.Ops 150) ~mode:(W.Spec.Fibers 17) ~seed:17 ()
  in
  let dump r = (r, Trace.dump ()) in
  let rt =
    match
      W.Matrix.with_cell ~ds:Hpbrcu_core.Caps.HHSList ~scheme:"HP-BRCU" cell dump
    with
    | Some rt -> rt
    | None -> Alcotest.fail "HP-BRCU must support HHSList"
  in
  Trace.disable ();
  rt

let test_fiber_determinism () =
  let r1, t1 = run_traced () in
  let r2, t2 = run_traced () in
  Alcotest.(check bool) "trace is non-trivial" true (List.length t1 > 100);
  Alcotest.(check int) "same event count" (List.length t1) (List.length t2);
  Alcotest.(check bool) "byte-identical event logs" true (t1 = t2);
  Alcotest.(check int) "equal op counts" r1.W.Spec.total_ops r2.W.Spec.total_ops;
  Alcotest.(check bool) "equal scheme snapshots" true
    (r1.W.Spec.scheme = r2.W.Spec.scheme);
  Alcotest.(check bool) "equal latency summaries (tick clock)" true
    (r1.W.Spec.latency = r2.W.Spec.latency);
  Alcotest.(check string) "latency in ticks" "tick" r1.W.Spec.latency.W.Spec.unit_;
  (* The run exercised the machinery the snapshot reports on. *)
  Alcotest.(check bool) "traversals counted" true (r1.W.Spec.scheme.Stats.traverses > 0)

(* The on-disk form of the same guarantee: same seed, byte-identical
   on-disk trace AND identical analyze output (the whole derived summary,
   including percentile distributions, joins, and curves). *)
let test_spool_determinism () =
  let read_all path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let _, t1 = run_traced () in
  let _, t2 = run_traced () in
  Alcotest.(check bool) "spooled log is non-trivial" true
    (List.length t1 > 100);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ());
  let p1 = Filename.temp_file "smrbench1" ".trace" in
  let p2 = Filename.temp_file "smrbench2" ".trace" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove p1;
      Sys.remove p2)
    (fun () ->
      Trace.to_file p1 t1;
      Trace.to_file p2 t2;
      Alcotest.(check bool) "byte-identical spooled trace files" true
        (read_all p1 = read_all p2));
  let s1 = W.Analyze.of_records ~source:"probe" t1 in
  let s2 = W.Analyze.of_records ~source:"probe" t2 in
  Alcotest.(check bool) "identical analyze summaries" true (s1 = s2);
  (* The summary exercised the correlation machinery, not just counters. *)
  Alcotest.(check bool) "retire->reclaim joins found" true
    (s1.W.Analyze.ttr.H.count > 0);
  Alcotest.(check bool) "critical sections seen" true
    (s1.W.Analyze.cs.H.count > 0)

(* Perfetto export smoke: valid-looking Chrome trace JSON with span and
   metadata events. *)
let test_perfetto_export () =
  let _, t = run_traced () in
  let path = Filename.temp_file "smrbench" ".perfetto.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.perfetto_to_file path t;
      let ic = open_in path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let contains sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "object start" true (s.[0] = '{');
      Alcotest.(check bool) "has traceEvents" true (contains "\"traceEvents\"");
      Alcotest.(check bool) "has span begins" true (contains "\"ph\":\"B\"");
      Alcotest.(check bool) "has span ends" true (contains "\"ph\":\"E\"");
      Alcotest.(check bool) "has thread metadata" true
        (contains "\"thread_name\""))

(* A different seed must give a different interleaving story. *)
let test_fiber_seed_sensitivity () =
  let _, t1 = run_traced () in
  Trace.enable ();
  let cell =
    W.Spec.cell ~threads:4 ~key_range:128 ~prefill:64 ~workload:W.Spec.Read_write
      ~limit:(W.Spec.Ops 150) ~mode:(W.Spec.Fibers 18) ~seed:17 ()
  in
  ignore (W.Matrix.run_cell ~ds:Hpbrcu_core.Caps.HHSList ~scheme:"HP-BRCU" cell);
  let t2 = Trace.dump () in
  Trace.disable ();
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t2)

let () =
  Alcotest.run "stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact-below-sub" `Quick test_buckets_exact_below_sub;
          Alcotest.test_case "roundtrip" `Quick test_bucket_roundtrip;
          Alcotest.test_case "error-bound" `Quick test_bucket_error_bound;
          Alcotest.test_case "percentiles-exact" `Quick test_percentiles_exact_small;
          Alcotest.test_case "percentiles-quantized" `Quick test_percentiles_quantized;
          Alcotest.test_case "edges" `Quick test_percentiles_edges;
        ] );
      ("counter", [ Alcotest.test_case "shards-sum" `Quick test_counter_shards_sum ]);
      ("gauge", [ Alcotest.test_case "watermarks" `Quick test_gauge ]);
      ( "trace",
        [
          Alcotest.test_case "disabled-emit-noop" `Quick test_disabled_emit_noop;
          Alcotest.test_case "enable-clears" `Quick test_trace_enable_clears;
          Alcotest.test_case "event-code-roundtrip" `Quick
            test_event_code_roundtrip;
          Alcotest.test_case "spool-growth" `Quick test_spool_growth;
          Alcotest.test_case "spool-bound" `Quick test_spool_bound;
          Alcotest.test_case "file-roundtrip" `Quick test_trace_file_roundtrip;
        ] );
      ( "registry",
        [
          Alcotest.test_case "shields-exhaustion" `Quick test_shields_exhaustion;
          Alcotest.test_case "shields-second-chunk" `Quick
            test_shields_second_chunk;
          Alcotest.test_case "participants-exhaustion" `Quick
            test_participants_exhaustion;
          Alcotest.test_case "chunk-build-no-minor-gc" `Quick
            test_chunk_build_no_minor_gc;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "trace-replayable" `Quick test_fiber_determinism;
          Alcotest.test_case "spool-byte-identical" `Quick
            test_spool_determinism;
          Alcotest.test_case "perfetto-export" `Quick test_perfetto_export;
          Alcotest.test_case "seed-sensitivity" `Quick test_fiber_seed_sensitivity;
        ] );
    ]
