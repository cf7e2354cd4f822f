(* smrbench — command-line driver for every experiment in the paper.

   Examples:
     smrbench fig1                      # Figure 1, quick profile
     smrbench fig7 --profile full       # Figure 7, longer cells
     smrbench appendix --workload wo    # Appendix write-only grid
     smrbench sweep --ds SkipList --workload rw --range 16384
     smrbench longrun --scheme HP-BRCU --range 8192
     smrbench table1 table2             # applicability/criteria tables *)

open Cmdliner
module W = Hpbrcu_workload

(* Every flag that picks from a fixed set parses with an [Arg.enum] built
   from the table that names the choices, so a bad value is a usage error
   (exit 124) that lists them, before any workload starts. *)
let choices name table = Arg.enum (List.map (fun x -> (name x, x)) table)
let scheme_conv = choices Fun.id Hpbrcu_schemes.Schemes.names
let ds_conv = choices Hpbrcu_core.Caps.ds_name Hpbrcu_core.Caps.all_ds
let workload_conv = choices W.Spec.workload_name W.Spec.all_workloads

let profile_arg =
  let doc = "Measurement profile: quick (default), full, or sim (fiber simulator; plays the second machine)." in
  let profiles = W.Figures.[ quick; full; sim ] in
  let profile_conv =
    Arg.enum
      (("intel", W.Figures.sim)
      :: List.map (fun p -> (p.W.Figures.label, p)) profiles)
  in
  Arg.(value & opt profile_conv W.Figures.quick & info [ "profile"; "p" ] ~doc)

let mode_arg =
  let doc =
    "Execution substrate: $(b,fibers) (default; the deterministic \
     simulator) or $(b,domains) (real Domain.spawn workers; thread sweeps \
     are clamped to the hardware's parallelism)."
  in
  let mode_conv = Arg.enum [ ("fibers", `Fibers); ("domains", `Domains) ] in
  Arg.(value & opt mode_conv `Fibers & info [ "mode" ] ~docv:"SUBSTRATE" ~doc)

let outdir_arg =
  let doc = "Directory for CSV outputs." in
  Arg.(value & opt string "results" & info [ "outdir" ] ~doc)

let stats_json_arg =
  let doc =
    "Write one machine-readable JSON record per experiment cell (throughput, \
     peak unreclaimed, op-latency p50/p90/p99/max, typed scheme counters) to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

let setup outdir stats_json =
  W.Report.outdir := outdir;
  match stats_json with
  | None -> ()
  | Some path -> (
      try W.Report.set_stats_json path
      with Sys_error msg ->
        Printf.eprintf "smrbench: cannot write --stats-json file: %s\n" msg;
        exit 1)

let with_profile f profile mode outdir stats_json =
  setup outdir stats_json;
  f (W.Figures.with_mode profile mode);
  W.Report.write_stats_json ();
  0

let simple_cmd name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (with_profile f) $ profile_arg $ mode_arg $ outdir_arg
      $ stats_json_arg)

let fig1_cmd = simple_cmd "fig1" "Figure 1: long-running reads, headline schemes" W.Figures.fig1
let fig5_cmd = simple_cmd "fig5" "Figure 5: read-only thread sweeps" W.Figures.fig5
let fig6_cmd = simple_cmd "fig6" "Figures 6/22: long-running reads, all schemes" W.Figures.fig6
let fig7_cmd = simple_cmd "fig7" "Figure 7: write-heavy thread sweeps" W.Figures.fig7

let appendix_cmd =
  let workload_arg =
    let doc = "Restrict to one workload (wo|rw|ri|ro)." in
    Arg.(value & opt (some workload_conv) None & info [ "workload"; "w" ] ~doc)
  in
  let ds_arg =
    let doc = "Restrict to one data structure." in
    Arg.(value & opt (some ds_conv) None & info [ "ds" ] ~doc)
  in
  let range_arg =
    let doc = "Restrict to small or large key ranges." in
    let range_conv = Arg.enum [ ("small", `Small); ("large", `Large) ] in
    Arg.(value & opt (some range_conv) None & info [ "range" ] ~doc)
  in
  let run profile mode outdir stats_json wl ds range =
    setup outdir stats_json;
    let p = W.Figures.with_mode profile mode in
    let all default = Option.fold ~none:default ~some:(fun x -> [ x ]) in
    let workloads = all W.Spec.all_workloads wl in
    let dss = all Hpbrcu_core.Caps.all_ds ds in
    let ranges = all [ `Small; `Large ] range in
    W.Figures.appendix ~workloads ~dss ~ranges p;
    W.Report.write_stats_json ();
    0
  in
  Cmd.v
    (Cmd.info "appendix" ~doc:"Appendix B/C grids (figures 8-36)")
    Term.(
      const run $ profile_arg $ mode_arg $ outdir_arg $ stats_json_arg
      $ workload_arg $ ds_arg $ range_arg)

let sweep_cmd =
  let ds_arg =
    Arg.(required & opt (some ds_conv) None & info [ "ds" ] ~doc:"Data structure.")
  in
  let wl_arg =
    Arg.(
      value
      & opt workload_conv W.Spec.Read_write
      & info [ "workload"; "w" ] ~doc:"Workload (wo|rw|ri|ro).")
  in
  let range_arg =
    Arg.(value & opt int 1024 & info [ "range" ] ~doc:"Key range.")
  in
  let run profile mode outdir stats_json ds wl range =
    setup outdir stats_json;
    let p = W.Figures.with_mode profile mode in
    let ds_s = Hpbrcu_core.Caps.ds_name ds and wl_s = W.Spec.workload_name wl in
    W.Figures.sweep
      ~title:(Printf.sprintf "sweep: %s %s range=%d" ds_s wl_s range)
      ~file:(Printf.sprintf "sweep_%s_%s_%d" ds_s wl_s range)
      p ~ds ~workload:wl ~key_range:range ();
    W.Report.write_stats_json ();
    0
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"One custom thread sweep")
    Term.(
      const run $ profile_arg $ mode_arg $ outdir_arg $ stats_json_arg
      $ ds_arg $ wl_arg $ range_arg)

(* Shared by the trace/chaos/longrun commands: spool the run's event log
   to FILE in the line format `smrbench analyze` ingests. *)
let trace_out_arg =
  let doc =
    "Record the run's event log and write it to $(docv) — the input format \
     of $(b,smrbench analyze).  Fiber runs keep every record up to 2^20 per \
     thread (tick timestamps, replayable from the seed); domain runs keep \
     the last 2^16 per domain and count the rest (calibrated ns \
     timestamps, GC track included)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let longrun_cmd =
  let scheme_arg =
    Arg.(value & opt (some scheme_conv) None & info [ "scheme" ] ~doc:"Single scheme (default: Figure 1 set).")
  in
  let range_arg =
    Arg.(value & opt (some int) None & info [ "range" ] ~doc:"Single key range.")
  in
  let run profile mode outdir stats_json scheme range trace_out =
    setup outdir stats_json;
    let p = W.Figures.with_mode profile mode in
    let p =
      match range with
      | None -> p
      | Some r -> { p with W.Figures.longrun_ranges = [ r ] }
    in
    match trace_out with
    | Some out ->
        (* One traced cell; the grid forms make no sense with a single
           trace.  Under fibers the records are stamped by the
           deterministic tick clock (a pure function of the seed); under
           domains by hardware ticks (DESIGN.md §15), merged into
           calibrated CLOCK_MONOTONIC ns with the GC track riding
           along. *)
        let scheme = Option.value scheme ~default:"HP-BRCU" in
        let range =
          match p.W.Figures.longrun_ranges with r :: _ -> r | [] -> 4096
        in
        let mode = p.W.Figures.mode in
        let c =
          W.Longrun.config ~key_range:range
            ~readers:p.W.Figures.longrun_threads
            ~writers:p.W.Figures.longrun_threads
            ~duration:p.W.Figures.duration ~mode ~seed:p.W.Figures.seed ()
        in
        let o = W.Longrun.run_traced ~scheme ~out c in
        Printf.printf
          "wrote %s (%s, range %d, reader %.3f / writer %.3f Mop/s, peak \
           unreclaimed %d)\n"
          out scheme range o.W.Longrun.reader_tput o.W.Longrun.writer_tput
          o.W.Longrun.peak_unreclaimed;
        0
    | None ->
        (match scheme with
        | None -> W.Figures.fig1 p
        | Some s ->
            W.Figures.longrun_tables
              ~title:("long-running reads: " ^ s)
              ~file:("longrun_" ^ s) p [ "NR"; s ]);
        W.Report.write_stats_json ();
        0
  in
  Cmd.v
    (Cmd.info "longrun" ~doc:"Long-running-operation benchmark")
    Term.(
      const run $ profile_arg $ mode_arg $ outdir_arg $ stats_json_arg
      $ scheme_arg $ range_arg $ trace_out_arg)

let trace_cmd =
  let module T = Hpbrcu_runtime.Trace in
  let scheme_arg =
    Arg.(value & opt scheme_conv "HP-BRCU" & info [ "scheme" ] ~doc:"Scheme to trace.")
  in
  let ds_arg =
    Arg.(value & opt ds_conv Hpbrcu_core.Caps.HHSList & info [ "ds" ] ~doc:"Data structure.")
  in
  let ops_arg =
    Arg.(value & opt int 200 & info [ "ops" ] ~doc:"Operations per fiber.")
  in
  let threads_arg =
    Arg.(value & opt int 4 & info [ "threads"; "t" ] ~doc:"Fiber count.")
  in
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~doc:"Simulator seed; the trace is a pure function of it.")
  in
  let range_arg =
    Arg.(value & opt int 256 & info [ "range" ] ~doc:"Key range.")
  in
  let last_arg =
    Arg.(
      value & opt int 0
      & info [ "last" ] ~doc:"Print only the last $(docv) events (0 = all kept).")
  in
  let run scheme ds ops threads seed range last trace_out =
    (* Always the deterministic simulator: traces are timestamped by the
       virtual tick clock, so the same seed replays the same event log,
       non-lossy up to the per-thread bound, printed or written to
       --trace-out (analyze input). *)
    T.enable ();
    let cell =
      W.Spec.cell ~threads ~key_range:range ~workload:W.Spec.Read_write
        ~limit:(W.Spec.Ops ops) ~mode:(W.Spec.Fibers seed) ~seed ()
    in
    (* The log is taken before the cell's domain is torn down. *)
    let dump r = (r, T.dump (), T.dropped ()) in
    let code =
      match W.Matrix.with_cell ~ds ~scheme cell dump with
      | None ->
          Printf.eprintf "%s does not support %s\n" scheme
            (Hpbrcu_core.Caps.ds_name ds);
          1
      | Some (r, recs, dropped) ->
          let total = List.length recs in
          (match trace_out with
          | Some out ->
              T.to_file out recs;
              Printf.printf "# wrote %s: %d events, %d ops, seed %d\n" out
                total r.W.Spec.total_ops seed
          | None ->
              let shown =
                if last > 0 && total > last then
                  List.filteri (fun i _ -> i >= total - last) recs
                else recs
              in
              List.iter
                (fun rc -> print_endline (T.record_to_string rc))
                shown;
              Printf.printf
                "# %d events kept (%d dropped by spool bound), %d ops, seed \
                 %d\n"
                total dropped r.W.Spec.total_ops seed);
          0
    in
    T.disable ();
    code
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one deterministic fiber-mode cell with the event tracer on and \
          print the decoded event log (replayable from the seed)")
    Term.(
      const run $ scheme_arg $ ds_arg $ ops_arg $ threads_arg $ seed_arg
      $ range_arg $ last_arg $ trace_out_arg)

let chaos_cmd =
  let seeds_arg =
    Arg.(
      value & opt int 3
      & info [ "seeds" ] ~doc:"Run the grid under seeds 1..$(docv).")
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:"Full-size cells (larger range and op budgets); default quick.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Quick cells (the default; overrides --full).")
  in
  let scheme_arg =
    Arg.(
      value
      & opt (list scheme_conv) W.Chaos.all_schemes
      & info [ "scheme" ]
          ~doc:"Comma-separated scheme subset (default: all twelve).")
  in
  let plan_arg =
    Arg.(
      value
      & opt (list (choices W.Chaos.plan_name W.Chaos.all_plans)) W.Chaos.all_plans
      & info [ "plan" ]
          ~doc:
            "Comma-separated fault-plan subset (baseline|stall-storm|\
             crash-reader|crash-many|signal-chaos|pool-squeeze|\
             stall-reader).")
  in
  let no_replay_arg =
    Arg.(
      value & flag
      & info [ "no-replay" ] ~doc:"Skip the traced determinism probes.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Restrict the grid to the RCU / HP-BRCU schemes under the \
             baseline and crash-reader plans (the discriminator corner; \
             the CI hardware gate under --mode domains).")
  in
  let threshold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ]
          ~doc:
            "Domains mode only: minimum RCU / HP-BRCU crashed-reader peak \
             ratio for the hardware discriminator gate (default 4; armed \
             only on >= 2 hardware threads).")
  in
  let baseline_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline-out" ] ~docv:"FILE"
          ~doc:
            "Write the grid's cells and discriminator ratios as a \
             chaos-fibers / chaos-domains JSON document to $(docv) \
             (advisory baseline, e.g. for BENCH_domains.json).")
  in
  let run substrate seeds full quick schemes plans no_replay smoke threshold
      baseline_out trace_out =
    let p = if full && not quick then W.Chaos.full else W.Chaos.quick in
    let schemes, plans =
      if smoke then (W.Chaos.smoke_schemes, W.Chaos.smoke_plans)
      else (schemes, plans)
    in
    match trace_out with
    | Some out ->
        (* One traced cell instead of the grid: first scheme/plan/seed of
           the (possibly restricted) selection. *)
        let scheme = match schemes with s :: _ -> s | [] -> "HP-BRCU" in
        let plan_id = match plans with pl :: _ -> pl | [] -> W.Chaos.Baseline in
        let c =
          W.Chaos.run_traced_to_file ~substrate ~scheme ~plan_id ~seed:1 ~out p
        in
        Fmt.pr "%a@." W.Chaos.pp_cell c;
        Fmt.pr "wrote %s@." out;
        if W.Chaos.check_cell c = [] then 0 else 1
    | None ->
        let seeds = List.init (max 1 seeds) (fun i -> i + 1) in
        let r =
          W.Chaos.run_grid ~schemes ~plans ~seeds ~replay:(not no_replay)
            ?threshold ~verbose:true ~substrate p
        in
        Fmt.pr "%a" W.Chaos.pp_report r;
        (match baseline_out with
        | None -> ()
        | Some path ->
            W.Chaos.write_json path r;
            Fmt.pr "wrote %s@." path);
        if W.Chaos.report_ok r then 0 else 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the scheme matrix under fault-injection plans \
          (crashed/stalled readers, lost signals, pool exhaustion) and check \
          the same invariants on either substrate (termination, UAF = 0, \
          exact census, caps, exactly the planned crashes).  Under --mode \
          fibers the plans are deterministic and byte-replayable and the \
          RCU crash/baseline discriminator must exceed 10x; under --mode \
          domains they inject on real worker domains and the RCU vs \
          HP-BRCU crashed-reader discriminator is gated on >= 2 cores.")
    Term.(
      const run $ mode_arg $ seeds_arg $ full_arg $ quick_arg $ scheme_arg
      $ plan_arg $ no_replay_arg $ smoke_arg $ threshold_arg
      $ baseline_out_arg $ trace_out_arg)

let shards_cmd =
  let scheme_arg =
    Arg.(
      value & opt scheme_conv "RCU"
      & info [ "scheme" ]
          ~doc:
            "Scheme whose domains shard the map (the epoch-based default \
             shows the sharpest contrast).")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic-schedule seed.")
  in
  let threshold_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ]
          ~doc:
            "Minimum shared-domain / isolated-build peak ratio (default 8 \
             under fibers, 4 under domains — real scheduling spreads the \
             unstranded shards' peaks).")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Quick chaos cells (the CI gate); default full.")
  in
  let run substrate outdir stats_json scheme seed threshold quick =
    setup outdir stats_json;
    let threshold =
      Option.value threshold ~default:(W.Chaos.isolation_threshold substrate)
    in
    let p = if quick then W.Chaos.quick else W.Chaos.full in
    let cell topology =
      fst
        (W.Chaos.run_one ~topology ~substrate ~scheme
           ~plan_id:W.Chaos.Crash_reader ~seed p)
    in
    let v =
      W.Chaos.isolation ~threshold ~isolated:(cell W.Chaos.Isolated)
        ~shared:(cell W.Chaos.Shared)
    in
    Fmt.pr "%a@." W.Chaos.pp_isolation v;
    let module J = W.Report.Json in
    W.Report.record_cell
      [
        ("kind", J.Str "shards");
        ("scheme", J.Str scheme);
        ("seed", J.Int seed);
        ( "isolated_peaks",
          J.List
            (Array.to_list
               (Array.map (fun p -> J.Int p) v.isolated.W.Chaos.dom_peaks)) );
        ("stranded_shard", J.Int v.stranded);
        ("iso_other_max", J.Int v.others_max);
        ("shared_peak", J.Int v.shared_peak);
        ("ratio", J.Float v.ratio);
        ("ok", J.Bool v.ok);
      ];
    W.Report.write_stats_json ();
    if v.ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "shards"
       ~doc:
         "Shard-isolation experiment: the chaos crashed-reader cell over a \
          sharded hash map with one reclamation domain per shard vs the \
          same map over a single shared domain.  The unstranded shards' \
          unreclaimed watermarks must stay flat in the isolated build \
          while the shared build balloons; both builds must pass every \
          chaos invariant.")
    Term.(
      const run $ mode_arg $ outdir_arg $ stats_json_arg $ scheme_arg
      $ seed_arg $ threshold_arg $ quick_arg)

let analyze_cmd =
  let module T = Hpbrcu_runtime.Trace in
  let module H = Hpbrcu_runtime.Stats.Histogram in
  let files_arg =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"TRACE"
          ~doc:
            "Spooled trace file(s), as written by --trace-out.  Pass one \
             file per scheme/run to get a side-by-side comparison.")
  in
  let perfetto_arg =
    Arg.(
      value & opt (some string) None
      & info [ "perfetto" ] ~docv:"FILE"
          ~doc:
            "Additionally export the first trace as Chrome trace-event JSON \
             (open in ui.perfetto.dev; thread tracks, critical-section / \
             checkpoint / scan / flush / op spans).")
  in
  let require_ttr_arg =
    Arg.(
      value & flag
      & info [ "require-ttr" ]
          ~doc:
            "Exit non-zero if any input trace yields zero retire->reclaim \
             pairs (smoke-test guard: an empty join means the trace or the \
             correlation ids are broken).")
  in
  let require_gc_track_arg =
    Arg.(
      value & flag
      & info [ "require-gc-track" ]
          ~doc:
            "With --perfetto: exit non-zero unless the exported JSON \
             carries the gc track plus at least one worker track (the \
             smoke-test shape of a merged domains-mode flight trace).")
  in
  let run outdir files perfetto require_ttr require_gc =
    W.Report.outdir := outdir;
    match List.map W.Analyze.of_file files with
    | exception Failure msg ->
        Printf.eprintf "analyze: %s\n" msg;
        1
    | summaries ->
        W.Analyze.report summaries;
        let perfetto_ok =
          match perfetto with
          | None ->
              if require_gc then
                Printf.eprintf "analyze: --require-gc-track needs --perfetto\n";
              not require_gc
          | Some f -> (
              T.perfetto_to_file f (T.read_file (List.hd files));
              (* Validate what we just wrote with the in-tree JSON parser:
                 well-formed, nonzero events, and (for domains-mode smoke
                 tests) the expected track population. *)
              match W.Analyze.Perfetto_check.validate f with
              | exception Failure msg ->
                  Printf.eprintf "analyze: perfetto export invalid: %s\n" msg;
                  false
              | v ->
                  let open W.Analyze.Perfetto_check in
                  Printf.printf
                    "wrote %s (load in ui.perfetto.dev): %d events, tracks: %s\n"
                    f v.pf_events
                    (String.concat ", " v.pf_tracks);
                  let workers =
                    List.filter
                      (fun t -> String.length t >= 6 && String.sub t 0 6 = "worker")
                      v.pf_tracks
                  in
                  if v.pf_events = 0 then begin
                    Printf.eprintf "analyze: perfetto export has zero events\n";
                    false
                  end
                  else if
                    require_gc && not (List.mem "gc" v.pf_tracks && workers <> [])
                  then begin
                    Printf.eprintf
                      "analyze: perfetto export missing the gc track or any \
                       worker track (got: %s)\n"
                      (String.concat ", " v.pf_tracks);
                    false
                  end
                  else true)
        in
        let empties =
          List.filter (fun s -> s.W.Analyze.ttr.H.count = 0) summaries
        in
        if require_ttr && empties <> [] then begin
          List.iter
            (fun s ->
              Printf.eprintf "analyze: no retire->reclaim pairs in %s\n"
                s.W.Analyze.source)
            empties;
          1
        end
        else if not perfetto_ok then 1
        else 0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Ingest spooled traces (--trace-out) and compute time-to-reclaim \
          percentiles, grace-period latency, signal->rollback latency, \
          abort rate vs critical-section length, and the \
          unreclaimed-watermark curve (CSVs under --outdir)")
    Term.(
      const run $ outdir_arg $ files_arg $ perfetto_arg $ require_ttr_arg
      $ require_gc_track_arg)

(* ------------------------------------------------------------------ *)
(* bench-reclaim: reclamation data-plane kernels.                      *)
(* ------------------------------------------------------------------ *)

module Reclaim_bench = struct
  module Config = Hpbrcu_core.Config
  module Link = Hpbrcu_core.Link
  module Smr_intf = Hpbrcu_core.Smr_intf
  module Alloc = Hpbrcu_alloc.Alloc
  module Block = Hpbrcu_alloc.Block
  module Clock = Hpbrcu_runtime.Clock
  module Hp = Hpbrcu_schemes.Hp
  module Hppp = Hpbrcu_schemes.Hppp
  module He = Hpbrcu_schemes.He
  module Ibr = Hpbrcu_schemes.Ibr
  module Ebr = Hpbrcu_schemes.Ebr
  module Pebr = Hpbrcu_schemes.Pebr
  module Nbr = Hpbrcu_schemes.Nbr
  module Hp_rcu = Hpbrcu_schemes.Hp_rcu
  module Hp_brcu = Hpbrcu_schemes.Hp_brcu
  module Epoch_core = Hpbrcu_schemes.Epoch_core
  module Brcu_core = Hpbrcu_schemes.Brcu_core

  type row = {
    kernel : string;
    scheme : string;
    hazards : int;  (* 0 when not applicable *)
    iters : int;  (* measured cycles *)
    ops_per_cycle : int;
    ns_per_op : float;
    minor_words_per_op : float;
    gated : bool;  (* counted by check.sh's steady-state allocation gate *)
    ns_range : (float * float) option;
        (* a per-node walk row's lowest and highest round *)
  }

  (* Time [f] over [iters] calls and measure the minor-heap delta per call.
     The probes themselves box a handful of floats (~8 words across the
     whole window), so a zero-allocation kernel reads ~0.00x words/call —
     well under the gate threshold. *)
  (* The probes themselves allocate (Gc.minor_words and Clock.now both
     return boxed floats), which would read as a spurious ~4 words per
     window; calibrate that constant once and subtract it. *)
  let probe_overhead =
    let sample () =
      let w0 = Gc.minor_words () in
      let t0 = Clock.now () in
      ignore (Sys.opaque_identity t0 : float);
      let t1 = Clock.now () in
      ignore (Sys.opaque_identity t1 : float);
      let w1 = Gc.minor_words () in
      w1 -. w0
    in
    ignore (sample () : float);
    sample ()

  (* A row from a kernel's [(ns, words)] per cycle of [ops] ops. *)
  let row ~kernel ~scheme ?(hazards = 0) ~iters ~ops ~gated (ns, words) =
    {
      kernel;
      scheme;
      hazards;
      iters;
      ops_per_cycle = ops;
      ns_per_op = ns /. float_of_int ops;
      minor_words_per_op = words /. float_of_int ops;
      gated;
      ns_range = None;
    }

  let measure ~iters f =
    for _ = 1 to 16 do f () done;  (* steady state: grow scratch, warm pools *)
    let w0 = Gc.minor_words () in
    let t0 = Clock.now () in
    for _ = 1 to iters do f () done;
    let t1 = Clock.now () in
    let w1 = Gc.minor_words () in
    ( (t1 -. t0) *. 1e9 /. float_of_int iters,
      Float.max 0. (w1 -. w0 -. probe_overhead) /. float_of_int iters )

  (* [measure], counting the words a call allocates in either heap:
     minor words plus blocks born directly in the major heap (arrays above
     [Max_young_wosize], such as a shield chunk), less the promoted words
     the major count includes.  Minor words come from [Gc.minor_words]:
     [Gc.counters]' minor count omits what was allocated since the last
     minor collection.  The probes' few boxed words are noise against the
     thousands a domain costs, so no calibration is subtracted. *)
  let measure_allocated ~iters f =
    let allocated () =
      let _, promoted, major = Gc.counters () in
      Gc.minor_words () +. major -. promoted
    in
    for _ = 1 to 16 do f () done;
    let w0 = allocated () in
    let t0 = Clock.now () in
    for _ = 1 to iters do f () done;
    let t1 = Clock.now () in
    let w1 = allocated () in
    ((t1 -. t0) *. 1e9 /. float_of_int iters, (w1 -. w0) /. float_of_int iters)

  let ring_size = 512

  (* A ring of recyclable blocks: retire -> (scheme reclaims) -> the
     kernel reanimates the block when its next lap reaches it.  The blocks
     are preallocated, so steady-state cycles can be allocation-free. *)
  let make_ring n = Array.init n (fun _ -> Alloc.block ~recyclable:true ())

  let[@inline] relive b = if Block.is_reclaimed b then Block.reanimate b ~era:0

  (* Each kernel owns a fresh throwaway domain: create/measure/destroy,
     no global reset anywhere near the measured window. *)
  let retire_kernel ~iters ~gated (module X : Smr_intf.SCHEME) =
    Alloc.reset ();
    let d = X.create ~label:"bench" Config.default in
    let h = X.register d in
    let blocks = make_ring ring_size in
    let i = ref 0 in
    let ops = 256 in
    let cycle () =
      for _ = 1 to ops do
        let b = blocks.(!i land (ring_size - 1)) in
        relive b;
        if Block.is_live b then X.retire h b;
        incr i
      done
    in
    let ns, words = measure ~iters cycle in
    X.flush h;
    X.unregister h;
    X.destroy ~force:true d;
    Alloc.reset ();
    row ~kernel:"retire" ~scheme:(X.caps Config.default).Hpbrcu_core.Caps.name
      ~iters ~ops ~gated (ns, words)

  (* One cycle = 128 retirements + one explicit scan against [hazards] live
     shields (the batch threshold is pushed out of reach so only [flush]
     scans).  Reported per cycle: the scan dominates at every H.  HP's
     machinery is driven directly, with no hop ring, so the shield table
     holds exactly the H shields (H = 16384 fills it). *)
  let scan_kernel ~iters ~hazards =
    let module X = Hpbrcu_schemes.Hp_core in
    Alloc.reset ();
    let meta =
      Smr_intf.Dom.make ~scheme:"HP" ~label:"bench-scan"
        { Config.default with batch = max_int lsr 1 }
    in
    let d = X.create meta in
    let h = X.register ~hop_ring:false d in
    let prot = Array.init hazards (fun _ -> Alloc.block ()) in
    let shields = Array.init hazards (fun _ -> X.new_shield h) in
    Array.iteri (fun k s -> X.protect s prot.(k)) shields;
    let blocks = make_ring 128 in
    let cycle () =
      for k = 0 to 127 do
        relive blocks.(k);
        X.retire h ~patches:[] ~claimed:false blocks.(k)
      done;
      X.flush h
    in
    let ns, words = measure ~iters cycle in
    Array.iter X.clear shields;
    X.flush h;
    X.unregister h;
    Smr_intf.Dom.begin_destroy ~force:true meta;
    X.drain d;
    Smr_intf.Dom.finish_destroy meta;
    Alloc.reset ();
    row ~kernel:"scan" ~scheme:"HP" ~hazards ~iters ~ops:1 ~gated:true
      (ns, words)

  (* Words of either heap one [domain-create] cycle of a gated scheme may
     allocate; [None] for a reported row.  HP-BRCU reads ~4.8k words on 2
     lanes: one 1024-slot shield chunk (~3.1k), one 64-slot participant
     chunk, the domain's own records, and ~13 stats counters of ~22 words
     per lane.  A shield table that built all 16384 slots at [create],
     with 257 thread shards per counter, read ~62k.  RCU reads ~470 words:
     the participant chunk, the session's records and 2 counters; with
     all 512 participant slots built at [create] it read ~1.8k.  IBR
     reads ~450 words under RCU's bound: its session's snapshot arrays
     start at 8 pairs, and sized to the registry's 512 they read ~1.5k.
     The bounds leave headroom and grow with [Counter.lanes], which the
     machine's recommended domain count sets. *)
  let domain_create_words scheme =
    let lanes = float_of_int Hpbrcu_runtime.Counter.lanes in
    match scheme with
    | "HP-BRCU" -> Some (8192. +. (512. *. lanes))
    | "RCU" | "IBR" -> Some (640. +. (64. *. lanes))
    | _ -> None

  (* One cycle = create a domain, register one session, give it 8
     shields, unregister it and destroy the domain: what a per-structure
     reclamation domain costs to set up and tear down, in words of either
     heap.  HP-BRCU's, RCU's and IBR's words per cycle are gated at
     [domain_create_words]. *)
  let domain_create_kernel ~iters (module X : Smr_intf.SCHEME) =
    Alloc.reset ();
    let cycle () =
      let d = X.create ~label:"bench-create" Config.default in
      let h = X.register d in
      for _ = 1 to 8 do
        ignore (Sys.opaque_identity (X.new_shield h) : X.shield)
      done;
      X.unregister h;
      X.destroy ~force:true d
    in
    let ns, words = measure_allocated ~iters cycle in
    Alloc.reset ();
    let scheme = (X.caps Config.default).Hpbrcu_core.Caps.name in
    row ~kernel:"domain-create" ~scheme ~iters ~ops:1
      ~gated:(domain_create_words scheme <> None) (ns, words)

  let dom_make ~scheme =
    Smr_intf.Dom.make ~scheme ~label:"bench" Config.default

  let dom_drop meta =
    Smr_intf.Dom.begin_destroy ~force:true meta;
    Smr_intf.Dom.finish_destroy meta

  let pin_kernel ~iters =
    let ed = Epoch_core.create (dom_make ~scheme:"RCU") in
    let h = Epoch_core.register ed () in
    let ops = 256 in
    let cycle () =
      for _ = 1 to ops do
        Epoch_core.pin h;
        Epoch_core.unpin h
      done
    in
    let ns, words = measure ~iters cycle in
    Epoch_core.unregister h;
    Epoch_core.drain ed;
    dom_drop ed.Epoch_core.meta;
    row ~kernel:"pin_unpin" ~scheme:"EBR" ~iters ~ops ~gated:true (ns, words)

  (* HP-BRCU critical-section enter/exit around a prebuilt empty body: the
     fixed cost every HP-BRCU traversal pays.  The body is built once, so
     anything [crit] allocates shows per op. *)
  let brcu_crit_kernel ~iters =
    let module X = Hp_brcu.Impl in
    let d = X.create ~label:"bench-crit" Config.default in
    let h = X.register d in
    let body () = () in
    let ops = 256 in
    let cycle () =
      for _ = 1 to ops do
        X.crit h body
      done
    in
    let ns, words = measure ~iters cycle in
    X.unregister h;
    X.destroy ~force:true d;
    row ~kernel:"brcu-crit" ~scheme:"HP-BRCU" ~iters ~ops ~gated:true
      (ns, words)

  (* Repeated advance attempts that must fail: one participant stays pinned
     below the global epoch, the classic spin of a reclaimer waiting out a
     slow reader. *)
  let advance_kernel ~iters =
    let ed = Epoch_core.create (dom_make ~scheme:"RCU") in
    let hs = Array.init 256 (fun _ -> Epoch_core.register ed ()) in
    Epoch_core.pin hs.(0);
    (* One successful advance turns hs.(0) into the lagging reader. *)
    ignore (Epoch_core.try_advance ed : bool);
    let ops = 64 in
    let cycle () =
      for _ = 1 to ops do
        ignore (Epoch_core.try_advance ed : bool)
      done
    in
    let ns, words = measure ~iters cycle in
    Epoch_core.unpin hs.(0);
    Array.iter Epoch_core.unregister hs;
    Epoch_core.drain ed;
    dom_drop ed.Epoch_core.meta;
    row ~kernel:"advance_fail" ~scheme:"EBR" ~iters ~ops ~gated:true (ns, words)

  let best (ns, w) (ns', w') = (Float.min ns ns', Float.max w w')

  (* [warm_best ~iters cycle] — spin [cycle] for ~60 ms first: frequency
     governors ramp on a 1-10 ms scale, and the tick-stamped paths timed
     with it are short enough that base-vs-boosted clock is the difference
     between passing and failing a gate ([measure]'s own 16-cycle warmup,
     ~0.2 ms, ends before the ramp starts).  Then take the best of five
     windows: a single ~ms window on a shared virtualized box is routinely
     inflated 20-40% by co-tenant preemption.  Words take the max — a
     0-allocation claim must hold in every window. *)
  let warm cycle =
    let t0 = Clock.now () in
    while Clock.now () -. t0 < 0.06 do
      cycle ()
    done

  let best_of_five ~iters cycle =
    let acc = ref (measure ~iters cycle) in
    for _ = 1 to 4 do
      acc := best !acc (measure ~iters cycle)
    done;
    !acc

  let warm_best ~iters cycle =
    warm cycle;
    best_of_five ~iters cycle

  (* The per-node walk rows ([traverse-walk], [raw-walk]): the same get
     past the tail of a [walk_short]- and of a [walk_long]-node list,
     per node over the extra nodes.  [walk_rounds] rounds each time one
     best-of-five window of either length, back to back, so drift between
     the two lengths lands inside a round; the row reports the median
     round, and its [ns_range] the lowest and highest (a single best
     window per length spread ~2x between processes).  [per_node] also
     returns the short get's median ns and each length's words, the max
     over every window. *)
  let walk_short, walk_long = (128, 1024)
  let walk_rounds = 9

  let per_node ~iters short_cycle long_cycle =
    warm short_cycle;
    warm long_cycle;
    let rounds =
      List.init walk_rounds (fun _ ->
          let s = best_of_five ~iters short_cycle in
          (s, best_of_five ~iters long_cycle))
    in
    let median xs = List.nth (List.sort Float.compare xs) (walk_rounds / 2) in
    let extra = float_of_int (walk_long - walk_short) in
    let nodes =
      List.map (fun ((ns_s, _), (ns_l, _)) -> (ns_l -. ns_s) /. extra) rounds
    in
    let words pick =
      List.fold_left (fun w r -> Float.max w (snd (pick r))) 0. rounds
    in
    let words_s = words fst and words_l = words snd in
    ( median nodes,
      ( List.fold_left Float.min infinity nodes,
        List.fold_left Float.max neg_infinity nodes ),
      Float.max 0. ((words_l -. words_s) /. extra),
      (median (List.map (fun ((ns_s, _), _) -> ns_s) rounds), words_s) )

  (* The disabled-tracer fast path: every hot-path emit in the runtime is
     one ref read and a branch when tracing is off (DESIGN.md §10).
     Gated at zero allocation AND single-digit ns/emit — the instrumented
     hot paths stay free when nobody is tracing.  Timed with [warm_best]:
     one slow stretch of a single window read 22.5 ns against ~4. *)
  let trace_emit_off_kernel ~iters =
    let module Trace = Hpbrcu_runtime.Trace in
    assert (not (Trace.enabled ()));
    let ops = 256 in
    let cycle () =
      for k = 1 to ops do
        Trace.emit Trace.Retire k;
        Trace.emit2 Trace.Reclaim k (k + 1)
      done
    in
    let ns, words = warm_best ~iters cycle in
    row ~kernel:"trace-emit-off" ~scheme:"-" ~iters ~ops:(ops * 2) ~gated:true
      (ns, words)

  (* The armed flight recorder (DESIGN.md §15): one raw-tick read plus
     four int stores into the caller's private ring.  Measured under a
     parked companion domain so the runtime's multi-domain Atomic paths
     are live — the configuration the recorder actually runs in — and
     gated at 25 ns / zero allocation per event, the budget that keeps
     domains-mode tracing honest about never perturbing what it
     observes. *)
  let flight_emit_budget_ns = 25.

  let flight_emit_kernel ~iters =
    let module Trace = Hpbrcu_runtime.Trace in
    let ops = 256 in
    let attempt () =
      Hpbrcu_runtime.Backend.with_parked_domain (fun () ->
          (* A 4K-record ring (128 KiB) stays L2-resident, so the kernel
             times the emit path itself rather than DRAM streaming: the
             production 64K-record rings see the same instructions, and
             in real workloads (one event per ~100+ ns op) the store
             buffer hides the line fills this back-to-back loop would
             otherwise expose. *)
          Trace.enable ~capacity:(1 lsl 12) ~sink:Trace.Flight ~gc:false ();
          let cycle () =
            for k = 1 to ops do
              Trace.emit Trace.Retire k;
              Trace.emit2 Trace.Reclaim k (k + 1)
            done
          in
          let r = warm_best ~iters cycle in
          Trace.disable ();
          r)
    in
    (* The gate asks a capability question — does the armed emit run in
       its budget — so a whole attempt that lands on a contended vCPU
       (every window slow, including the tick-read baseline) earns a
       fresh attempt after a pause, up to three.  A genuinely slow emit
       path fails all of them. *)
    let ns, words =
      let rec go n acc =
        let acc = best acc (attempt ()) in
        if fst acc /. float_of_int (ops * 2) <= flight_emit_budget_ns || n <= 1
        then acc
        else (Unix.sleepf 0.05; go (n - 1) acc)
      in
      go 3 (infinity, 0.)
    in
    row ~kernel:"flight-emit" ~scheme:"-" ~iters ~ops:(ops * 2) ~gated:true
      (ns, words)

  (* The raw tick read alone, timed like [flight-emit] (parked companion,
     warmup, best of five windows), so that kernel's cost splits into the
     stamp and the ring stores.  Reported, not gated. *)
  let clock_ticks_kernel ~iters =
    let ops = 512 in
    let cycle () =
      for _ = 1 to ops do
        ignore (Clock.raw_ticks () : int)
      done
    in
    let ns, words =
      Hpbrcu_runtime.Backend.with_parked_domain (fun () -> warm_best ~iters cycle)
    in
    row ~kernel:"clock-ticks" ~scheme:"-" ~iters ~ops ~gated:false (ns, words)

  (* Run [f] inside a single spawned worker under the Domains backend.
     [Gc.minor_words] inside the worker counts that domain's own minor
     allocation (the main domain sits in [Domain.join] and allocates
     nothing meanwhile), so the allocation gate is measured where the
     work actually happens. *)
  let in_domain (f : unit -> 'a) : 'a =
    let module Sched = Hpbrcu_runtime.Sched in
    let r = ref None in
    Sched.run Sched.Domains ~nthreads:1 (fun _ -> r := Some (f ()));
    Option.get !r

  (* An unarmed [Sched.yield ()] inside a Domains worker: no fiber
     scheduler, wall deadline or fault plan, so each yield is the inlined
     test of the hooks word (DESIGN.md §9) that every mediated read pays.
     Gated at zero words; its ns is reported, not gated. *)
  let yield_kernel ~iters =
    let module Sched = Hpbrcu_runtime.Sched in
    let ops = 512 in
    let cycle () =
      for _ = 1 to ops do
        Sched.yield ()
      done
    in
    let ns, words =
      in_domain (fun () ->
          assert (Atomic.get Hpbrcu_runtime.Fault.hooks = 0);
          warm_best ~iters cycle)
    in
    row ~kernel:"yield" ~scheme:"-" ~iters ~ops ~gated:true (ns, words)

  let brcu_advance_kernel ~iters =
    let bd = Brcu_core.create (dom_make ~scheme:"BRCU") in
    let hs = Array.init 64 (fun _ -> Brcu_core.register bd) in
    let res = ref (0., 0.) in
    let ops = 64 in
    (* hs.(0) pins inside a critical section; the first flush advances the
       global past it, after which every flush sees a lagging reader. *)
    Brcu_core.crit hs.(0) (fun () ->
        Brcu_core.flush hs.(1);
        res :=
          measure ~iters (fun () ->
              for _ = 1 to ops do
                Brcu_core.flush hs.(1)
              done));
    let ns, words = !res in
    Array.iter Brcu_core.unregister hs;
    Brcu_core.drain bd;
    dom_drop bd.Brcu_core.meta;
    row ~kernel:"advance_fail" ~scheme:"BRCU" ~iters ~ops ~gated:true
      (ns, words)

  (* One node as its structure builds it: a single record that starts
     with [Block.t]'s fields (DESIGN.md §9, "the header-prefix rule"),
     plus only what its own fields hold.  Gated, per structure, at the
     words it builds: one 11-field record (12 words) for the sorted
     list's node ([List_node], the one node of HList, HHSList, the
     HashMap's buckets and HMList, so the HHSList and HMList rows build
     the same node); one 12-field
     record (13 words) for an NMTree or EFRB leaf, whose children and
     update word are shared, and for a LazyList node, whose lock and mark
     are int fields (as [Atomic.t] boxes they read 4 words more); a
     height-1 skip-list node's 10-field record
     plus its tower (11 + 2 + one cell holding the shared null, 2; a
     cell holding a fresh null read 2 more).  A separate header record
     read 8 words more per node. *)
  let node_words = function
    | "HHSList" | "HMList" -> Some 12.
    | "NMTree" | "EFRB-BST" | "LazyList" -> Some 13.
    | "SkipList" -> Some 15.
    | _ -> None

  let node_alloc_kernels ~iters =
    let module D = Hpbrcu_ds in
    let module Pool = Hpbrcu_alloc.Pool in
    let pool = Pool.create () in
    let kernel ds make =
      Alloc.reset ();
      let ops = 256 in
      let cycle () =
        for i = 1 to ops do
          make i
        done
      in
      let ns, words = measure ~iters cycle in
      Alloc.reset ();
      row ~kernel:"node-alloc" ~scheme:ds ~iters ~ops ~gated:true (ns, words)
    in
    let keep n = ignore (Sys.opaque_identity n) in
    [
      kernel "HHSList" (fun k ->
          keep (D.List_node.mk_node ~recyclable:false ~era:0 k 0 pool));
      kernel "HMList" (fun k ->
          keep (D.List_node.mk_node ~recyclable:false ~era:0 k 0 pool));
      kernel "LazyList" (fun k ->
          keep (D.Lazy_list.mk_node ~recyclable:false ~era:0 k 0));
      kernel "SkipList" (fun k ->
          keep (D.Skiplist.mk_node ~recyclable:false ~era:0 ~height:1 k 0));
      kernel "NMTree" (fun k ->
          keep (D.Nmtree.mk_leaf ~recyclable:false ~era:0 k 0));
      kernel "EFRB-BST" (fun k -> keep (D.Efrb_bst.mk_leaf ~recyclable:false k));
    ]

  (* Words one [get] of the 128-node HHSList allocates besides its walk:
     its live cursor (4 words), plus a 4-word slot per checkpoint slot the
     scheme fills on the way (HP-RCU ends a 64-step phase into slot 0,
     HP-BRCU checkpoints every 64 steps into both slots).  Three cursor
     records, a cursor closure and the op body's closure per get read
     24.9 under all four schemes; a retry frame around the body read 4-8
     words more. *)
  let traverse_get_words = function
    | "HP-RCU" -> 8.
    | "HP-BRCU" -> 12.
    | _ -> 4.

  (* The Traverse read path (DESIGN.md §9): an HHSList [get] of an absent
     key beyond the tail, which walks every node, on a 128-node and on a
     1024-node list.  The difference of the two costs per get, over the
     896 extra nodes, is the cost per traversed node, with every per-get
     constant (op wrapper, critical-section entry, final protect)
     cancelled: gated at zero words per node.  A [traverse-get] row
     reports the 128-node get's ns and gates its per-get constant in
     words (the 128-node get less 128 nodes' worth) at the scheme's
     [traverse_get_words]. *)
  let traverse_kernels ~iters (module X : Smr_intf.SCHEME) =
    Alloc.reset ();
    let d = X.create ~label:"bench-walk" Config.default in
    let module S = Smr_intf.Bind (X) (struct let it = d end) in
    let module L = Hpbrcu_ds.Harris_list.Make_hhs (S) in
    let list n =
      let t = L.create () in
      let s = L.session t in
      for k = 0 to n - 1 do
        ignore (L.insert t s k 0 : bool)
      done;
      (s, fun () -> ignore (L.get t s n : bool))
    in
    let s_short, short = list walk_short in
    let s_long, long = list walk_long in
    let ns_node, range, words_node, (ns_s, words_s) =
      per_node ~iters short long
    in
    L.close_session s_short;
    L.close_session s_long;
    X.destroy ~force:true d;
    Alloc.reset ();
    let scheme = (X.caps Config.default).Hpbrcu_core.Caps.name in
    [
      {
        (row ~kernel:"traverse-walk" ~scheme ~iters ~ops:1 ~gated:true
           (ns_node, words_node))
        with
        ns_range = Some range;
      };
      row ~kernel:"traverse-get" ~scheme ~iters ~ops:1 ~gated:true
        ( ns_s,
          Float.max 0. (words_s -. (float_of_int walk_short *. words_node)) );
    ]

  (* Words one HHSList update allocates when the key decides it changes
     nothing: an [insert-present] row inserts a present key, a
     [remove-absent] row removes an absent one, on a 32-key list (the
     even keys below 64).  Each builds its live cursor (4 words); under
     HP-BRCU the held destination also takes a checkpoint, whose slot is
     4 words more.  Building the node before the search read 12 words
     more per insert, and the operation's closures 20-30 more per
     update. *)
  let update_words = function "HP-BRCU" -> 8. | _ -> 4.

  let update_kernels ~iters (module X : Smr_intf.SCHEME) =
    Alloc.reset ();
    let d = X.create ~label:"bench-update" Config.default in
    let module S = Smr_intf.Bind (X) (struct let it = d end) in
    let module L = Hpbrcu_ds.Harris_list.Make_hhs (S) in
    let t = L.create () in
    let s = L.session t in
    let n = 32 in
    for k = 0 to n - 1 do
      ignore (L.insert t s (2 * k) 0 : bool)
    done;
    let scheme = (X.caps Config.default).Hpbrcu_core.Caps.name in
    let kernel name op =
      let cycle () =
        for k = 0 to n - 1 do
          ignore (op k : bool)
        done
      in
      row ~kernel:name ~scheme ~iters ~ops:n ~gated:true (measure ~iters cycle)
    in
    let rows =
      [
        kernel "insert-present" (fun k -> L.insert t s (2 * k) 0);
        kernel "remove-absent" (fun k -> L.remove t s ((2 * k) + 1));
      ]
    in
    L.close_session s;
    X.destroy ~force:true d;
    Alloc.reset ();
    rows

  (* The floor under [traverse-walk]: the same get past the tail of a
     128-node and of a 1024-node list, per node over the 896 extra nodes,
     on HHSList's own nodes walked by a plain loop: no scheme, walker,
     [read], yield or access check.  Reported, not gated: NR's
     [traverse-walk] over this row is what the library's mediation costs
     per node. *)
  module Hl = Hpbrcu_ds.List_node

  (* HHSList's [get], minus the scheme: skip marked nodes, stop at the
     first key >= [key]. *)
  let rec raw_walk key = function
    | Link.Null _ -> false
    | Link.Ptr { target = (n : Hl.node); _ } ->
        let k = n.key in
        let next = Link.get (Hl.next_cell n) in
        if Link.is_marked next || k < key then raw_walk key next else k = key

  let raw_walk_kernel ~iters =
    let pool = Hpbrcu_alloc.Pool.create () in
    let node key = Hl.mk_node ~recyclable:false ~era:0 key 0 pool in
    let list n =
      (* Linked in key order, allocated in key order, as the inserts of
         [traverse_kernels] leave an HHSList. *)
      let head = node min_int in
      let nodes = Array.init n node in
      Array.iteri
        (fun k x ->
          Link.set (Hl.next_cell (if k = 0 then head else nodes.(k - 1)))
            (Link.ptr x))
        nodes;
      fun () ->
        ignore
          (Sys.opaque_identity (raw_walk n (Link.get (Hl.next_cell head)))
            : bool)
    in
    let ns_node, range, words_node, _ =
      per_node ~iters (list walk_short) (list walk_long)
    in
    Alloc.reset ();
    {
      (row ~kernel:"raw-walk" ~scheme:"-" ~iters ~ops:1 ~gated:false
         (ns_node, words_node))
      with
      ns_range = Some range;
    }

  (* Short reads: 64 [get]s of present keys spread over a map of [n] keys
     inserted in a shuffled order.  [tree-get] is an NMTree of 4Ki keys
     (depth ~2 ln 4096, about 17 hops a get); [hash-get] a HashMap of
     64Ki keys in 16Ki HHSList buckets (a 4-node chain), where the
     per-get constants — op wrapper, critical-section entry, checkpoints —
     are most of a get.  Reported, not gated: set beside NR's row, each
     scheme's row is its per-get cost. *)
  let get_kernel ~kernel ~iters ~n make (module X : Smr_intf.SCHEME) =
    Alloc.reset ();
    let d = X.create ~label:("bench-" ^ kernel) Config.default in
    let module S = Smr_intf.Bind (X) (struct let it = d end) in
    let (module M : Hpbrcu_ds.Ds_intf.MAP) = make (module S : Smr_intf.S) in
    let probes = 64 in
    let t = M.create () in
    let s = M.session t in
    let keys = Hpbrcu_runtime.Rng.(permutation (create ~seed:11) n) in
    Array.iter (fun k -> ignore (M.insert t s k 0 : bool)) keys;
    let cycle () =
      for i = 0 to probes - 1 do
        ignore (M.get t s (i * (n / probes)) : bool)
      done
    in
    let ns, words = warm_best ~iters cycle in
    M.close_session s;
    X.destroy ~force:true d;
    Alloc.reset ();
    row ~kernel ~scheme:(X.caps Config.default).Hpbrcu_core.Caps.name
      ~iters ~ops:probes ~gated:false (ns, words)

  let tree_get_kernel ~iters =
    get_kernel ~kernel:"tree-get" ~iters ~n:4096 (fun (module S) ->
        (module Hpbrcu_ds.Nmtree.Make (S)))

  let hash_get_kernel ~iters =
    get_kernel ~kernel:"hash-get" ~iters ~n:65536 (fun (module S) ->
        (module struct
          include Hpbrcu_ds.Hashmap.Make_gen (Hpbrcu_ds.Harris_list.Make_hhs) (S)

          let create () = create_sized 16384
        end))

  let run_all ~quick =
    let sc = if quick then 8 else 1 in
    let it n = max 8 (n / sc) in
    let retire ~gated m = retire_kernel ~iters:(it 1000) ~gated m in
    let create m = domain_create_kernel ~iters:(it 400) m in
    [
      (* Allocation-free single-step retire/scan cycles (gated). *)
      retire ~gated:true (module Hp.Impl : Smr_intf.SCHEME);
      retire ~gated:true (module Hppp.Impl : Smr_intf.SCHEME);
      retire ~gated:true (module He.Impl : Smr_intf.SCHEME);
      retire ~gated:true (module Ibr.Impl : Smr_intf.SCHEME);
      (* Deferred retirement queues the block itself: RCU and PEBR are
         gated at [retire_deferred_words].  NBR and the two-step schemes
         are reported: NBR's neutralization round and HP-RCU's and
         HP-BRCU's hand-off to the HP half (one orphan segment per
         expired block) still allocate. *)
      retire ~gated:true (module Ebr.Impl : Smr_intf.SCHEME);
      retire ~gated:true (module Pebr.Impl : Smr_intf.SCHEME);
      retire ~gated:false (module Nbr.Impl : Smr_intf.SCHEME);
      retire ~gated:false (module Hp_rcu.Impl : Smr_intf.SCHEME);
      retire ~gated:false (module Hp_brcu.Impl : Smr_intf.SCHEME);
      scan_kernel ~iters:(it 1000) ~hazards:64;
      scan_kernel ~iters:(it 300) ~hazards:1024;
      scan_kernel ~iters:(it 60) ~hazards:16384;
      create (module Hp_brcu.Impl : Smr_intf.SCHEME);
      create (module Hp.Impl : Smr_intf.SCHEME);
      create (module Ebr.Impl : Smr_intf.SCHEME);
      create (module Ibr.Impl : Smr_intf.SCHEME);
      pin_kernel ~iters:(it 1000);
      brcu_crit_kernel ~iters:(it 1000);
      advance_kernel ~iters:(it 1000);
      brcu_advance_kernel ~iters:(it 500);
      trace_emit_off_kernel ~iters:(it 2000);
      flight_emit_kernel ~iters:(it 2000);
      clock_ticks_kernel ~iters:(it 2000);
      yield_kernel ~iters:(it 2000);
      raw_walk_kernel ~iters:(it 400);
    ]
    @ node_alloc_kernels ~iters:(it 2000)
    @ List.concat_map
        (fun m -> update_kernels ~iters:(it 400) m)
        [
          (module Hpbrcu_schemes.Nr.Impl : Smr_intf.SCHEME);
          (module Hp_brcu.Impl : Smr_intf.SCHEME);
        ]
    @ List.concat_map
        (fun m ->
          traverse_kernels ~iters:(it 400) m
          @ [ tree_get_kernel ~iters:(it 100) m; hash_get_kernel ~iters:(it 100) m ])
        [
          (module Hpbrcu_schemes.Nr.Impl : Smr_intf.SCHEME);
          (module Ebr.Impl : Smr_intf.SCHEME);
          (module Hp_rcu.Impl : Smr_intf.SCHEME);
          (module Hp_brcu.Impl : Smr_intf.SCHEME);
        ]

  let write_json path rows =
    let oc = open_out path in
    output_string oc "{\n  \"benchmark\": \"reclaim\",\n  \"rows\": [\n";
    let last = List.length rows - 1 in
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "    {\"kernel\": %S, \"scheme\": %S, \"hazards\": %d, \"iters\": \
           %d, \"ops_per_cycle\": %d, \"ns_per_op\": %.1f, \
           \"minor_words_per_op\": %.4f, \"gated\": %b%s}%s\n"
          r.kernel r.scheme r.hazards r.iters r.ops_per_cycle r.ns_per_op
          r.minor_words_per_op r.gated
          (match r.ns_range with
          | Some (lo, hi) -> Printf.sprintf ", \"ns_range\": [%.2f, %.2f]" lo hi
          | None -> "")
          (if i = last then "" else ","))
      rows;
    output_string oc "  ]\n}\n";
    close_out oc

  (* The gate tolerates the measurement probes' own float boxing. *)
  let gate_threshold = 0.05

  (* Words per op the gated RCU and PEBR [retire] rows may allocate: a
     defer stores the block into a reusable vector, and what is left is
     a collect's share (its partition closure, each orphan or expired
     batch), ~0.2 words.  A fresh entry record per defer read ~5.2. *)
  let retire_deferred_words = 1.

  (* Words per op a gated row may allocate: none, except one node per
     [node-alloc] op, one domain's setup per [domain-create] cycle, one
     get's constant per [traverse-get], one update's cursor per
     [insert-present] and [remove-absent] op and a collect's share per
     RCU or PEBR [retire] (a bound that already has room for the
     probes). *)
  let words_bound r =
    match (r.kernel, r.scheme) with
    | "retire", ("RCU" | "PEBR") -> retire_deferred_words
    | "node-alloc", ds -> Option.get (node_words ds) +. gate_threshold
    | "domain-create", sch -> Option.get (domain_create_words sch) +. gate_threshold
    | "traverse-get", sch -> traverse_get_words sch +. gate_threshold
    | ("insert-present" | "remove-absent"), sch ->
        update_words sch +. gate_threshold
    | _ -> gate_threshold

  let run ~out ~gate ~quick =
    let rows = run_all ~quick in
    List.iter
      (fun r ->
        Printf.printf "%-12s %-8s H=%-6d %10.1f ns/op %10.4f words/op%s%s\n"
          r.kernel r.scheme r.hazards r.ns_per_op r.minor_words_per_op
          (if r.gated then "  [gated]" else "")
          (match r.ns_range with
          | Some (lo, hi) ->
              Printf.sprintf "  (%d rounds: %.2f..%.2f)" walk_rounds lo hi
          | None -> ""))
      rows;
    write_json out rows;
    Printf.printf "wrote %s\n" out;
    if not gate then 0
    else begin
      let bad =
        List.filter
          (fun r -> r.gated && r.minor_words_per_op > words_bound r)
          rows
      in
      List.iter
        (fun r ->
          Printf.eprintf
            "bench-reclaim: GATE FAIL %s/%s H=%d allocates %.4f \
             words/op in steady state (bound %.2f)\n"
            r.kernel r.scheme r.hazards r.minor_words_per_op (words_bound r))
        bad;
      (* The disabled-emit fast path additionally gates on latency: a ref
         read and a branch must stay single-digit ns. *)
      let slow_emit =
        List.filter
          (fun r -> r.kernel = "trace-emit-off" && r.ns_per_op >= 10.)
          rows
      in
      List.iter
        (fun r ->
          Printf.eprintf
            "bench-reclaim: GATE FAIL %s costs %.1f ns/op (must be < 10)\n"
            r.kernel r.ns_per_op)
        slow_emit;
      (* The armed flight recorder gates at 25 ns/event: raw-tick stamp
         plus four int stores, no syscall-path clock. *)
      let slow_flight =
        List.filter
          (fun r ->
            r.kernel = "flight-emit" && r.ns_per_op > flight_emit_budget_ns)
          rows
      in
      List.iter
        (fun r ->
          Printf.eprintf
            "bench-reclaim: GATE FAIL %s costs %.1f ns/op (must be <= 25)\n"
            r.kernel r.ns_per_op)
        slow_flight;
      if bad = [] && slow_emit = [] && slow_flight = [] then begin
        Printf.printf "bench-reclaim: allocation gate passed (all gated \
                       kernels <= %.2f words/op, node-alloc <= one node \
                       (%.0f words for HHSList), domain-create <= %.0f \
                       (HP-BRCU) and %.0f (RCU, IBR), traverse-get <= %.0f \
                       (NR, RCU) to %.0f (HP-BRCU), insert-present and \
                       remove-absent <= %.0f (NR) and %.0f (HP-BRCU), \
                       disabled emit < 10 ns, armed flight emit <= 25 ns)\n"
          gate_threshold (Option.get (node_words "HHSList"))
          (Option.get (domain_create_words "HP-BRCU"))
          (Option.get (domain_create_words "RCU"))
          (traverse_get_words "NR") (traverse_get_words "HP-BRCU")
          (update_words "NR") (update_words "HP-BRCU");
        0
      end
      else 1
    end

  (* ---------------------------------------------------------------- *)
  (* Domain parity: the same kernels inside a spawned domain           *)
  (* (the bench-domains single-domain-overhead and allocation gates).  *)
  (* ---------------------------------------------------------------- *)

  type parity = {
    pkernel : string;
    pscheme : string;
    main_ns : float;  (** ns/op on the main domain (the bench-reclaim row) *)
    dom_ns : float;  (** ns/op inside a [Sched.run Domains] worker *)
    dom_words : float;  (** minor words/op measured inside the worker *)
  }

  (** [domain_parity ~quick] — re-runs the gated retire kernels and the
      epoch pin kernel inside a spawned domain and pairs each with its
      main-domain twin.  Best-of-two on both sides damps scheduler noise
      on a shared box; neither side runs effect handlers, so the ratio
      isolates what the backend itself adds to the hot path. *)
  let domain_parity ~quick =
    let sc = if quick then 8 else 1 in
    let it n = max 8 (n / sc) in
    let kernels =
      [
        (fun () ->
          retire_kernel ~iters:(it 1000) ~gated:true
            (module Hp.Impl : Smr_intf.SCHEME));
        (fun () ->
          retire_kernel ~iters:(it 1000) ~gated:true
            (module Hppp.Impl : Smr_intf.SCHEME));
        (fun () ->
          retire_kernel ~iters:(it 1000) ~gated:true
            (module He.Impl : Smr_intf.SCHEME));
        (fun () ->
          retire_kernel ~iters:(it 1000) ~gated:true
            (module Ibr.Impl : Smr_intf.SCHEME));
        (fun () -> pin_kernel ~iters:(it 1000));
      ]
    in
    let best_of_two f =
      let a = f () in
      let b = f () in
      if a.ns_per_op <= b.ns_per_op then a else b
    in
    List.map
      (fun k ->
        (* The main-domain twin runs under a parked companion domain so
           both sides pay the runtime's multi-domain Atomic paths; see
           {!Hpbrcu_runtime.Backend.with_parked_domain}. *)
        let m =
          best_of_two (fun () -> Hpbrcu_runtime.Backend.with_parked_domain k)
        in
        let d = best_of_two (fun () -> in_domain k) in
        {
          pkernel = m.kernel;
          pscheme = m.scheme;
          main_ns = m.ns_per_op;
          dom_ns = d.ns_per_op;
          dom_words = d.minor_words_per_op;
        })
      kernels
end

let bench_reclaim_cmd =
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_reclaim.json"
      & info [ "out" ] ~doc:"Output JSON path.")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Exit non-zero if any gated kernel allocates minor-heap words \
             per op in steady state.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Reduced iteration counts (CI gate).")
  in
  let run out gate quick = Reclaim_bench.run ~out ~gate ~quick in
  Cmd.v
    (Cmd.info "bench-reclaim"
       ~doc:
         "Reclamation data-plane microkernels (retire cycle, shield scan at \
          H hazards, epoch pin/unpin, failed advance) with per-op time and \
          minor-heap allocation; writes BENCH_reclaim.json")
    Term.(const run $ out_arg $ gate_arg $ quick_arg)

(* ------------------------------------------------------------------ *)
(* bench-domains: the real-parallelism thread-sweep matrix.            *)
(* ------------------------------------------------------------------ *)

let bench_domains_cmd =
  let module DB = W.Domains_bench in
  let module Json = W.Report.Json in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_domains.json"
      & info [ "out" ] ~doc:"Output JSON path.")
  in
  let gate_arg =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Exit non-zero on any census/uaf failure, single-domain \
             overhead beyond 1.5x the fiber baseline, kernel parity \
             beyond 1.5x or allocating in-domain, or (on multi-core \
             hardware) an absolute multi-domain slowdown.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Reduced cell and kernel sizes (CI gate).")
  in
  let threads_arg =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4; 8 ]
      & info [ "threads"; "t" ]
          ~doc:
            "Comma-separated domain counts to sweep; clamped to the \
             hardware's parallelism.")
  in
  let scheme_arg =
    Arg.(
      value
      & opt (list scheme_conv) DB.all_scheme_names
      & info [ "scheme" ]
          ~doc:"Comma-separated scheme subset (default: all twelve).")
  in
  let ds_arg =
    Arg.(
      value
      & opt (list ds_conv) DB.default_dss
      & info [ "ds" ]
          ~doc:
            "Comma-separated structure subset (default: \
             HMList,HHSList,HashMap,NMTree).")
  in
  let ops_arg =
    Arg.(
      value & opt int 4000
      & info [ "ops" ] ~doc:"Operations per worker per cell.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")
  in
  let run out gate quick threads schemes dss ops seed =
    (* Cells must stay long enough to amortize Domain.spawn (~a
       millisecond per worker) or ns/op gates on spawn cost; the quick
       floor is 2000 ops, not lower. *)
    let ops_per_thread = if quick then min ops 2000 else ops in
    let v =
      DB.sweep ~schemes ~dss ~threads ~ops_per_thread ~seed
        ~progress:print_endline ()
    in
    (* Kernel parity: the bench-reclaim microkernels re-run inside a
       spawned domain and compared against their main-domain twins. *)
    let parity = Reclaim_bench.domain_parity ~quick in
    let parity_failures =
      List.concat_map
        (fun pr ->
          let open Reclaim_bench in
          Printf.printf
            "kernel %-8s %-8s main %8.1f ns/op  domain %8.1f ns/op  %6.4f \
             words/op\n"
            pr.pkernel pr.pscheme pr.main_ns pr.dom_ns pr.dom_words;
          (* +2 ns absolute grace: at tens-of-ns kernels a timer blip
             should not trip a ratio gate. *)
          (if pr.dom_ns > (pr.main_ns *. DB.overhead_limit) +. 2. then
             [
               Printf.sprintf
                 "kernel %s/%s in-domain %.1f ns/op > %.1fx main-domain %.1f \
                  ns/op"
                 pr.pkernel pr.pscheme pr.dom_ns DB.overhead_limit pr.main_ns;
             ]
           else [])
          @
          if pr.dom_words > Reclaim_bench.gate_threshold then
            [
              Printf.sprintf
                "kernel %s/%s allocates %.4f minor words/op inside the domain"
                pr.pkernel pr.pscheme pr.dom_words;
            ]
          else [])
        parity
    in
    let kernel_rows =
      List.map
        (fun pr ->
          let open Reclaim_bench in
          Json.Obj
            [
              ("kernel", Json.Str pr.pkernel);
              ("scheme", Json.Str pr.pscheme);
              ("main_ns_per_op", Json.Float pr.main_ns);
              ("domain_ns_per_op", Json.Float pr.dom_ns);
              ("domain_minor_words_per_op", Json.Float pr.dom_words);
              ( "ratio",
                Json.Float (pr.dom_ns /. Float.max 1e-9 pr.main_ns) );
            ])
        parity
    in
    let v = { v with DB.failures = v.DB.failures @ parity_failures } in
    (* Flight-recorder whole-cell delta: what arming the per-domain trace
       rings costs a representative cell, recorded beside the baseline. *)
    let flight = DB.flight_delta ~ops_per_thread ~seed () in
    (match flight with
    | Some f ->
        Printf.printf
          "flight-recorder delta %s/%s@%d: off %.1f ns/op, armed %.1f ns/op \
           (%+.1f%%), %d events kept / %d dropped\n"
          f.DB.fd_scheme (Hpbrcu_core.Caps.ds_name f.DB.fd_ds) f.DB.fd_threads
          f.DB.off_ns f.DB.on_ns f.DB.overhead_pct f.DB.fd_kept f.DB.fd_dropped
    | None -> ());
    DB.write_json ?flight out v ~kernel_rows;
    Printf.printf "wrote %s\n" out;
    if not gate then 0
    else if v.DB.failures = [] then begin
      Printf.printf
        "bench-domains: gate passed (%d cells, %d parity kernels, %d \
         hardware threads)\n"
        (List.length v.DB.cells) (List.length parity)
        (Hpbrcu_runtime.Backend.hardware_threads ());
      0
    end
    else begin
      List.iter (Printf.eprintf "bench-domains: GATE FAIL %s\n") v.DB.failures;
      1
    end
  in
  Cmd.v
    (Cmd.info "bench-domains"
       ~doc:
         "Run the scheme x structure matrix on real Domain.spawn workers \
          across a thread sweep (clamped to the hardware) with correctness \
          census, single-domain overhead and scalability-ratio gates; \
          writes BENCH_domains.json")
    Term.(
      const run $ out_arg $ gate_arg $ quick_arg $ threads_arg $ scheme_arg
      $ ds_arg $ ops_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* hunt: schedule/fault exploration with shrinking counterexamples.    *)
(* ------------------------------------------------------------------ *)

let hunt_cmd =
  let module C = Hpbrcu_check in
  let scheme_arg =
    Arg.(
      value
      & opt (some (list (choices Fun.id (List.map fst W.Matrix.hunt_impls)))) None
      & info [ "scheme" ]
          ~doc:
            "Comma-separated hunt targets (default: every real scheme in the \
             hunt matrix).  Mutant names like HP-BRCU!nomask are accepted.")
  in
  let mutants_arg =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:"Hunt the planted mutants instead (each MUST be convicted).")
  in
  let strategy_arg =
    Arg.(
      value
      & opt (choices C.Hunt.strategy_to_string [ `Rand; `Pct; `Dfs ]) `Rand
      & info [ "strategy" ] ~doc:"Search strategy: rand, pct or dfs.")
  in
  let runs_arg =
    Arg.(
      value & opt int 150
      & info [ "runs" ] ~doc:"Case budget per (scheme, strategy).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Base seed; case i runs under a seed derived from it.")
  in
  let shrink_arg =
    Arg.(
      value & opt int 150
      & info [ "shrink-budget" ] ~doc:"Run budget for minimizing a finding.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write each shrunk finding as a replayable artifact under $(docv).")
  in
  let repro_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "repro" ] ~docv:"FILE"
          ~doc:
            "Replay the repro artifact $(docv) twice (traced) and verify the \
             finding recurs with byte-identical event logs; no hunting.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "CI gate: every mutant must be convicted (and its repro must \
             replay) within 3 x --runs cases, and every real scheme must \
             stay silent over --runs cases per target.")
  in
  let write_repro out (scheme : string) (f : C.Hunt.finding_report) =
    match out with
    | None -> ()
    | Some dir ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let slug =
          String.map (function '!' -> '_' | c -> c) scheme
          ^ "-" ^ W.Oracle.tag f.C.Hunt.repro.C.Repro.finding ^ ".repro"
        in
        let path = Filename.concat dir slug in
        C.Repro.to_file path f.C.Hunt.repro;
        Printf.printf "wrote %s\n" path
  in
  let hunt_one ~strategy ~seed ~runs ~shrink_budget ~out scheme =
    let cfg =
      {
        (C.Hunt.default_config ~scheme ~strategy ~seed ~runs)
        with
        C.Hunt.shrink_budget;
        log = print_endline;
      }
    in
    let r = C.Hunt.run cfg in
    Fmt.pr "%a@." C.Hunt.pp_report r;
    Option.iter (write_repro out scheme) r.C.Hunt.finding;
    r
  in
  let run scheme mutants strategy runs seed shrink_budget out repro smoke =
    match repro with
    | Some file -> (
        match C.Repro.of_file file with
        | exception Invalid_argument msg ->
            Printf.eprintf "hunt: %s: %s\n" file msg;
            1
        | r ->
            let v = C.Repro.replay r in
            Fmt.pr "%s: %a@." file C.Repro.pp_verdict v;
            if v.C.Repro.reproduced && v.C.Repro.deterministic then 0 else 1)
    | None ->
        let targets =
          match scheme with
          | Some l -> l
          | None when mutants -> W.Matrix.mutant_names
          | None -> W.Matrix.hunt_scheme_names
        in
        if smoke then begin
          (* Mutation-testing gate: the hunt must convict every planted bug
             and stay silent on every real scheme, same budget both ways.
             Both randomized strategies run per target — they are
             complementary (uniform random's fine-grained interleavings
             build the multi-node marked chains the nomask leak needs; PCT's
             long uninterrupted stretches strand the torn checkpoints the
             nodb use-after-free needs), so each target tries the one that
             convicts it first and stops at the first finding. *)
          let strategies s =
            if s = "HP-BRCU!nodb" then [ `Pct; `Rand ] else [ `Rand; `Pct ]
          in
          let convicted ~runs s =
            List.exists
              (fun strategy ->
                not
                  (C.Hunt.clean
                     (hunt_one ~strategy ~seed ~runs ~shrink_budget ~out s)))
              (strategies s)
          in
          (* A mutant gets three times a real scheme's budget: over seeds
             1-10 the cases it takes to convict one spread from 1 to a few
             hundred, for either mutant, so a smaller budget passes or
             fails by the seed. *)
          let missed =
            List.filter
              (fun m -> not (convicted ~runs:(3 * runs) m))
              W.Matrix.mutant_names
          in
          let noisy = List.filter (convicted ~runs) W.Matrix.hunt_scheme_names in
          List.iter
            (Printf.eprintf "hunt: MUTANT NOT CONVICTED within budget: %s\n")
            missed;
          List.iter
            (Printf.eprintf "hunt: FALSE POSITIVE on real scheme: %s\n")
            noisy;
          if missed = [] && noisy = [] then begin
            Printf.printf
              "hunt smoke: %d mutants convicted, %d real schemes clean\n"
              (List.length W.Matrix.mutant_names)
              (List.length W.Matrix.hunt_scheme_names);
            0
          end
          else 1
        end
        else begin
          let reports =
            List.map (hunt_one ~strategy ~seed ~runs ~shrink_budget ~out) targets
          in
          if List.for_all C.Hunt.clean reports then 0 else 1
        end
  in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:
         "Systematically explore schedules and fault plans (random, PCT \
          priorities, bounded DFS) against the safety oracles — \
          use-after-free, double retire/reclaim, bound violation, lost \
          signal, leak at quiescence — shrinking any finding to a minimal \
          replayable repro artifact")
    Term.(
      const run $ scheme_arg $ mutants_arg $ strategy_arg $ runs_arg $ seed_arg
      $ shrink_arg $ out_arg $ repro_arg $ smoke_arg)

let table_cmd name pp =
  Cmd.v
    (Cmd.info name ~doc:("Print the paper's " ^ name))
    Term.(
      const (fun () ->
          pp ();
          0)
      $ const ())

let main =
  Cmd.group
    (Cmd.info "smrbench" ~version:"1.0"
       ~doc:"Regenerate the experiments of 'Expediting Hazard Pointers with Bounded RCU Critical Sections' (SPAA 2024)")
    [
      fig1_cmd;
      fig5_cmd;
      fig6_cmd;
      fig7_cmd;
      appendix_cmd;
      sweep_cmd;
      longrun_cmd;
      trace_cmd;
      chaos_cmd;
      shards_cmd;
      hunt_cmd;
      analyze_cmd;
      bench_reclaim_cmd;
      bench_domains_cmd;
      table_cmd "table1" W.Figures.table1;
      table_cmd "table2" W.Figures.table2;
    ]

let () = exit (Cmd.eval' main)
