(* Chaos-harness invariants on a reduced grid (the full matrix runs in
   `smrbench chaos`; see check.sh).  Covers every fault class: a crashed
   reader, dropped/delayed signals, and the fault-free baseline, across
   one scheme per robustness mechanism — EBR (unbounded by design, the
   discriminator), HP (ignores stalls), NBR + HP-BRCU (signal-based,
   exercising quarantine), VBR (pool-based). *)

module Chaos = Hpbrcu_workload.Chaos
module Analyze = Hpbrcu_workload.Analyze
module H = Hpbrcu_runtime.Stats.Histogram

let schemes = [ "RCU"; "HP"; "NBR"; "HP-BRCU"; "VBR" ]
let plans = [ Chaos.Baseline; Chaos.Crash_reader; Chaos.Signal_chaos ]

(* One grid run shared by the tests below (the cells are deterministic, so
   splitting it would only repeat work). *)
let report =
  lazy
    (Chaos.run_grid ~schemes ~plans ~seeds:[ 1 ] ~replay:true ~substrate:`Fibers
       Chaos.quick)

let test_invariants () =
  let r = Lazy.force report in
  Alcotest.(check int)
    "every cell ran" (List.length schemes * List.length plans)
    (List.length r.Chaos.cells);
  List.iter
    (fun (c, v) ->
      Alcotest.failf "invariant violated: %s/%s seed=%d: %s" c.Chaos.scheme
        c.Chaos.plan c.Chaos.seed v)
    r.Chaos.violations

let test_discriminator () =
  let r = Lazy.force report in
  match r.Chaos.ratios with
  | [ (1, ratio, verdict) ] ->
      if verdict <> Some true then
        Alcotest.failf
          "RCU crash/baseline peak ratio %.1fx — EBR collapse under a \
           crashed reader should exceed 10x"
          ratio
  | l -> Alcotest.failf "expected one discriminator entry, got %d" (List.length l)

let test_crash_quarantine () =
  (* The crashed-reader plan must actually crash somebody, and the
     signal-based schemes must quarantine the corpse rather than hang. *)
  let r = Lazy.force report in
  List.iter
    (fun (c : Chaos.cell) ->
      if c.plan = "crash-reader" then begin
        Alcotest.(check int)
          (c.scheme ^ ": one reader crashed") 1 c.crashes;
        if c.scheme = "NBR" || c.scheme = "HP-BRCU" then
          Alcotest.(check bool)
            (c.scheme ^ ": crashed reader quarantined") true
            (c.snap.Hpbrcu_runtime.Stats.quarantines >= 1)
      end)
    r.Chaos.cells

let test_replay () =
  let r = Lazy.force report in
  Alcotest.(check int) "every probe ran" 3 r.Chaos.probes;
  List.iter
    (fun (s, pl, seed, why) ->
      Alcotest.failf "replay mismatch %s/%s seed=%d: %s" s pl seed why)
    r.Chaos.replay_mismatches

(* The summary counts the probes that actually ran: none when replay is
   off, whatever the selection. *)
let test_probe_count () =
  let r =
    Chaos.run_grid ~schemes:[ "RCU" ] ~plans:[ Chaos.Baseline ] ~replay:false
      ~substrate:`Fibers Chaos.quick
  in
  Alcotest.(check int) "no replay, no probes" 0 r.Chaos.probes;
  Alcotest.(check string) "summary line"
    "chaos: 1 cells, 0 violations, 0 replay probes — all invariants hold\n"
    (Fmt.str "%a" Chaos.pp_report r)

(* The trace-level form of the Figure 6 claim: under a crashed reader,
   HP-BRCU's retire->reclaim latency distribution is non-empty and its
   p99 stays within the scheme's declared footprint era — while RCU's
   epoch can never advance again, so it stops producing reclaim joins at
   all (every post-crash retire stays unreclaimed/uncovered). *)
let test_analyze_discriminator () =
  let traced scheme =
    let _, log =
      Chaos.run_one ~traced:true ~substrate:`Fibers ~scheme
        ~plan_id:Chaos.Crash_reader ~seed:1 Chaos.quick
    in
    Analyze.of_records ~source:scheme log
  in
  let hb = traced "HP-BRCU" in
  let rcu = traced "RCU" in
  Alcotest.(check bool) "HP-BRCU keeps reclaiming after the crash" true
    (hb.Analyze.ttr.H.count > 100);
  Alcotest.(check bool) "HP-BRCU ttr p99 bounded" true
    (hb.Analyze.ttr.H.p99 > 0 && hb.Analyze.ttr.H.p99 < hb.Analyze.events);
  Alcotest.(check bool) "HP-BRCU leaves only the crash leak behind" true
    (hb.Analyze.never_reclaimed < 4 * rcu.Analyze.never_reclaimed);
  Alcotest.(check bool) "RCU strands an order of magnitude more blocks" true
    (rcu.Analyze.never_reclaimed > 10 * max 1 hb.Analyze.never_reclaimed);
  Alcotest.(check bool) "RCU's stranded retires are never covered" true
    (rcu.Analyze.uncovered >= rcu.Analyze.never_reclaimed / 2);
  (* The signal->rollback join on a signal-heavy scheme: baseline NBR
     neutralizes everyone, so sends and rollbacks must correlate. *)
  let _, nbr_log =
    Chaos.run_one ~traced:true ~substrate:`Fibers ~scheme:"NBR"
      ~plan_id:Chaos.Baseline ~seed:1 Chaos.quick
  in
  let nbr = Analyze.of_records ~source:"NBR" nbr_log in
  Alcotest.(check bool) "NBR sends signals" true (nbr.Analyze.signals_sent > 0);
  Alcotest.(check bool) "some sends join a rollback" true
    (nbr.Analyze.sig_rb.H.count > 0);
  Alcotest.(check bool) "joins never exceed sends" true
    (nbr.Analyze.sig_rb.H.count <= nbr.Analyze.signals_sent)

let () =
  Alcotest.run "chaos"
    [
      ( "grid",
        [
          Alcotest.test_case "invariants hold" `Quick test_invariants;
          Alcotest.test_case "EBR collapse discriminator" `Quick
            test_discriminator;
          Alcotest.test_case "crashes quarantined" `Quick test_crash_quarantine;
          Alcotest.test_case "traces replay byte-identically" `Quick test_replay;
          Alcotest.test_case "probe count follows --no-replay" `Quick
            test_probe_count;
          Alcotest.test_case "analyze reproduces the Fig. 6 shape" `Quick
            test_analyze_discriminator;
        ] );
    ]
