(* The self-healing layer: the watchdog escalation-ladder engine over
   scripted subjects, allocation admission (backpressure), crashed fibers
   inside Scoped RAII guards, and the KV-service cell end to end. *)

module Sched = Hpbrcu_runtime.Sched
module Fault = Hpbrcu_runtime.Fault
module W = Hpbrcu_runtime.Watchdog
module Alloc = Hpbrcu_alloc.Alloc
module Config = Hpbrcu_core.Config
module SI = Hpbrcu_core.Smr_intf
module Dom = SI.Dom
module Schemes = Hpbrcu_schemes.Schemes
module K = Hpbrcu_workload.Kvservice

let reset () =
  Alloc.reset ();
  Alloc.Admission.clear_all ()

(* ------------------------------------------------------------------ *)
(* The ladder engine over scripted subjects                            *)
(* ------------------------------------------------------------------ *)

(* A subject whose probe is a script and whose actions append to a log:
   the ladder walk becomes a checkable string. *)
let scripted ?(recycle_ok = true) ?(with_recycle = true) ~probe log =
  let r () =
    log := "C" :: !log;
    recycle_ok
  in
  {
    W.label = "scripted";
    id = 7;
    probe;
    nudge = (fun () -> log := "N" :: !log);
    resend =
      (fun () ->
        log := "R" :: !log;
        false);
    quarantine =
      (fun () ->
        log := "Q" :: !log;
        3);
    recycle = (if with_recycle then Some r else None);
  }

let tight_cfg =
  {
    W.poll_every = 1;
    poll_ns = 50_000;
    unreclaimed_threshold = 10;
    lag_threshold = 0;
    no_ack_streak = 0;
    nudge_deadline = 2;
    resend_deadline = 2;
    quarantine_deadline = 1;
    backoff_base = 1;
    backoff_cap = 1;
    jitter = 0;
  }

let always_laggard () = { W.unreclaimed = 100; lag = 0; no_acks = 0 }

let test_ladder_order () =
  let log = ref [] in
  let t = W.create ~seed:1 tight_cfg [ scripted ~probe:always_laggard log ] in
  for _ = 1 to 7 do
    W.step t
  done;
  (* streak 1-2 nudge, 3-4 re-send (backoff 1), 5 quarantine, 6 recycle
     (succeeds, ladder resets), 7 nudge again. *)
  Alcotest.(check (list string))
    "ladder walk" [ "N"; "N"; "R"; "R"; "Q"; "C"; "N" ]
    (List.rev !log);
  let c = W.counts t in
  Alcotest.(check int) "nudges" 3 c.W.nudges;
  Alcotest.(check int) "resends" 2 c.W.resends;
  Alcotest.(check int) "quarantined (returned count)" 3 c.W.quarantined;
  Alcotest.(check int) "recycles" 1 c.W.recycles;
  Alcotest.(check string) "worst rung" "recycle" (W.level_name (W.worst_level t))

let test_deescalate_on_recovery () =
  let log = ref [] in
  let sick = ref true in
  let probe () =
    { W.unreclaimed = (if !sick then 100 else 0); lag = 0; no_acks = 0 }
  in
  let t = W.create ~seed:1 tight_cfg [ scripted ~probe log ] in
  for _ = 1 to 3 do
    W.step t
  done;
  Alcotest.(check (list string)) "escalated" [ "N"; "N"; "R" ] (List.rev !log);
  sick := false;
  for _ = 1 to 5 do
    W.step t
  done;
  Alcotest.(check (list string))
    "recovered: no further actions" [ "N"; "N"; "R" ] (List.rev !log);
  Alcotest.(check string) "worst rung remembered" "resend"
    (W.level_name (W.worst_level t));
  (* A relapse starts a fresh episode from the bottom rung. *)
  sick := true;
  W.step t;
  Alcotest.(check (list string))
    "relapse restarts at nudge" [ "N"; "N"; "R"; "N" ]
    (List.rev !log)

let test_no_recycle_caps_at_quarantine () =
  let log = ref [] in
  let t =
    W.create ~seed:1 tight_cfg
      [ scripted ~with_recycle:false ~probe:always_laggard log ]
  in
  for _ = 1 to 10 do
    W.step t
  done;
  Alcotest.(check string) "capped below recycle" "quarantine"
    (W.level_name (W.worst_level t));
  Alcotest.(check int) "no recycles" 0 (W.counts t).W.recycles

let test_deferred_recycle_retries () =
  let log = ref [] in
  let t =
    W.create ~seed:1 tight_cfg
      [ scripted ~recycle_ok:false ~probe:always_laggard log ]
  in
  for _ = 1 to 8 do
    W.step t
  done;
  (* Deferred recycles don't count and don't reset the ladder: the rung
     stays Recycle and retries every round. *)
  Alcotest.(check int) "no recycle counted" 0 (W.counts t).W.recycles;
  Alcotest.(check (list string))
    "recycle retried" [ "N"; "N"; "R"; "R"; "Q"; "C"; "C"; "C" ]
    (List.rev !log)

let test_same_seed_same_walk () =
  let walk seed =
    let log = ref [] in
    let cfg = { tight_cfg with W.jitter = 3; backoff_cap = 4 } in
    let t = W.create ~seed cfg [ scripted ~probe:always_laggard log ] in
    for _ = 1 to 25 do
      W.step t
    done;
    List.rev !log
  in
  Alcotest.(check (list string)) "same seed, same walk" (walk 42) (walk 42);
  Alcotest.(check bool)
    "jittered backoff actually used" true
    (List.length (walk 42) > 0)

(* ------------------------------------------------------------------ *)
(* Allocation admission (backpressure)                                 *)
(* ------------------------------------------------------------------ *)

let test_admission () =
  reset ();
  let o = Alloc.Owner.fresh ~label:"bp-test" in
  Alcotest.(check bool)
    "no limit: admitted" true
    (Alloc.Admission.admit ~owner:o () = Alloc.Admission.Admitted);
  Alloc.Admission.set_limit o 5;
  for _ = 1 to 9 do
    Alloc.Owner.on_retire o
  done;
  (* Over the limit and nothing reclaims: the bounded wait must give up
     with the typed outcome, not spin forever. *)
  (match Alloc.Admission.admit ~rounds:7 ~owner:o () with
  | Alloc.Admission.Admitted -> Alcotest.fail "must shed over the limit"
  | Alloc.Admission.Backpressure { owner; waited } ->
      Alcotest.(check int) "owner in the outcome" o owner;
      Alcotest.(check int) "bounded wait rounds" 7 waited);
  Alcotest.(check int) "one wait" 1 (Alloc.Admission.wait_count ());
  Alcotest.(check int) "one reject" 1 (Alloc.Admission.reject_count ());
  (* Reclamation catches up: admitted again. *)
  for _ = 1 to 6 do
    Alloc.Owner.on_reclaim o
  done;
  Alcotest.(check bool)
    "under the limit again" true
    (Alloc.Admission.admit ~owner:o () = Alloc.Admission.Admitted);
  (* Counters reset with the allocator; limits are configuration. *)
  Alloc.reset ();
  Alcotest.(check int) "waits reset" 0 (Alloc.Admission.wait_count ());
  Alcotest.(check int) "limit survives reset" 5 (Alloc.Admission.limit o);
  Alloc.Admission.clear_all ();
  Alcotest.(check int) "cleared" 0 (Alloc.Admission.limit o);
  Alloc.Owner.release o

(* ------------------------------------------------------------------ *)
(* Scoped guards vs crashed fibers                                     *)
(* ------------------------------------------------------------------ *)

(* A fiber that crashes inside [Scoped.with_session] never unwinds, so
   the guard cannot release — the handle must stay VISIBLE in the live
   census (a typed Domain_active on destroy), never a silent pin that
   force-destroy's leak accounting then loses. *)
let test_scoped_crash_mid_section () =
  reset ();
  Alloc.set_strict false;
  let module X = (val (Option.get (Schemes.find_impl "RCU")) : SI.SCHEME) in
  let module G = SI.Scoped (X) in
  let d = X.create ~label:"scoped-crash" Config.default in
  Fault.install
    {
      Fault.label = "crash-in-guard";
      rules =
        [ { Fault.site = Yield; tid = 0; start = 10; period = 0; action = Crash } ];
    };
  Sched.run
    (Sched.Fibers { seed = 5; switch_every = 1 })
    ~nthreads:2
    (fun tid ->
      if tid = 0 then
        G.with_session d (fun h ->
            G.with_op h (fun () ->
                G.with_crit h (fun () ->
                    for _ = 1 to 100 do
                      X.retire h (Alloc.block ());
                      (* The mediated switch point — where Yield-site
                         faults (the crash) are consulted. *)
                      Sched.yield ()
                    done)))
      else
        G.with_session d (fun h ->
            for _ = 1 to 20 do
              X.retire h (Alloc.block ());
              Sched.yield ()
            done));
  Fault.clear ();
  Alcotest.(check int) "one fiber crashed" 1 (Sched.crashed_count ());
  (* The survivor's guard released; the victim's could not and must be
     counted, not dropped. *)
  Alcotest.(check int) "crashed guard still in the census" 1
    (Dom.live_handles (X.dom d));
  (match X.destroy d with
  | () -> Alcotest.fail "destroy under a crashed guard must raise"
  | exception Dom.Domain_active { live; _ } ->
      Alcotest.(check int) "census names the pin" 1 live);
  (* Teardown under dead readers is the documented force path. *)
  X.destroy ~force:true d;
  (match X.register d with
  | _ -> Alcotest.fail "register after force-destroy must raise"
  | exception Dom.Destroyed _ -> ())

(* ------------------------------------------------------------------ *)
(* The KV service cell                                                 *)
(* ------------------------------------------------------------------ *)

let small =
  {
    K.default_params with
    K.clients = 3;
    requests = 400;
    keys = 128;
    shards = 2;
    budget = 120;
  }

let test_kv_smoke () =
  reset ();
  let r = K.run_one ~scheme:"RCU" ~plan:"none" small in
  Alcotest.(check bool) "SLO pass" true r.K.verdict.K.v_ok;
  Alcotest.(check int) "no crashes" 0 r.K.crashes;
  Alcotest.(check int) "no UAF" 0 r.K.uaf;
  Alcotest.(check bool) "requests served" true (r.K.served > 0)

let test_kv_deterministic () =
  reset ();
  let a = K.run_one ~scheme:"RCU" ~plan:"crash-reader" small in
  reset ();
  let b = K.run_one ~scheme:"RCU" ~plan:"crash-reader" small in
  Alcotest.(check int) "served equal" a.K.served b.K.served;
  Alcotest.(check int) "peak equal" a.K.peak b.K.peak;
  Alcotest.(check int) "recycles equal" a.K.recycles b.K.recycles;
  Alcotest.(check bool)
    "trace replay byte-identical" true
    (K.replay_identical ~scheme:"RCU" ~plan:"crash-reader" small)

let test_kv_crash_heals () =
  reset ();
  let r = K.run_one ~scheme:"RCU" ~plan:"crash-reader" small in
  Alcotest.(check int) "one crash" 1 r.K.crashes;
  Alcotest.(check int) "no UAF" 0 r.K.uaf;
  Alcotest.(check bool) "watermark within budget" true
    (r.K.peak <= small.K.budget)

(* ------------------------------------------------------------------ *)
(* The ladder on the Domains backend (DESIGN.md §16): rounds pace on   *)
(* real Clock ns (poll_ns), not simulator ticks                        *)
(* ------------------------------------------------------------------ *)

(* Same walk as test_ladder_order, but the supervisor runs inside a real
   domain via [W.run]: deadlines expire on wall-clock rounds.  The probe
   counts rounds so [until] can stop the walk at exactly seven. *)
let test_domains_ladder_walk () =
  let log = ref [] in
  let rounds = Atomic.make 0 in
  let probe () =
    Atomic.incr rounds;
    always_laggard ()
  in
  let t = W.create ~seed:1 tight_cfg [ scripted ~probe log ] in
  Sched.run Sched.Domains ~nthreads:1 (fun _ ->
      W.run t ~until:(fun () -> Atomic.get rounds >= 7));
  Alcotest.(check (list string))
    "wall-paced ladder walk" [ "N"; "N"; "R"; "R"; "Q"; "C"; "N" ]
    (List.rev !log);
  Alcotest.(check int) "recycles" 1 (W.counts t).W.recycles

let test_domains_deescalate () =
  let log = ref [] in
  let sick = Atomic.make true in
  let rounds = Atomic.make 0 in
  let probe () =
    Atomic.incr rounds;
    {
      W.unreclaimed = (if Atomic.get sick then 100 else 0);
      lag = 0;
      no_acks = 0;
    }
  in
  let t = W.create ~seed:1 tight_cfg [ scripted ~probe log ] in
  Sched.run Sched.Domains ~nthreads:1 (fun _ ->
      W.run t ~until:(fun () ->
          (* Recover the subject after the third wall round. *)
          if Atomic.get rounds >= 3 then Atomic.set sick false;
          Atomic.get rounds >= 8));
  Alcotest.(check (list string))
    "escalated then silent after recovery" [ "N"; "N"; "R" ]
    (List.rev !log);
  Alcotest.(check string) "worst rung remembered" "resend"
    (W.level_name (W.worst_level t))

(* A recycle must be deferred while a live domain still holds a session
   (the kvservice g_opens race): the supervisor keeps retrying every
   round and only wins once the holder releases. *)
let test_domains_recycle_waits_for_holder () =
  let held = Atomic.make true in
  let deferred = Atomic.make 0 in
  let recycled = Atomic.make 0 in
  let sub =
    {
      W.label = "held";
      id = 1;
      probe = always_laggard;
      nudge = ignore;
      resend = (fun () -> false);
      quarantine = (fun () -> 0);
      recycle =
        Some
          (fun () ->
            if Atomic.get held then (
              Atomic.incr deferred;
              false)
            else (
              Atomic.incr recycled;
              true));
    }
  in
  let t = W.create ~seed:1 tight_cfg [ sub ] in
  Sched.run Sched.Domains ~nthreads:2 (fun i ->
      if i = 0 then W.run t ~until:(fun () -> Atomic.get recycled >= 1)
      else begin
        (* The holder: sits in its "session" until the supervisor has
           been forced to defer at least once, then releases it. *)
        while Atomic.get deferred < 1 do
          Hpbrcu_runtime.Clock.sleep_ns 20_000
        done;
        Atomic.set held false
      end);
  Alcotest.(check bool) "deferred at least once" true (Atomic.get deferred >= 1);
  Alcotest.(check int) "recycled once released" 1 (Atomic.get recycled);
  Alcotest.(check int) "deferred recycles not counted" 1 (W.counts t).W.recycles

(* The service cell end to end on real domains: a worker domain parked
   forever inside its critical section, healed by a wall-paced recycle.
   The verdicts are statistical (no byte-replay): exactly one crash,
   zero UAFs, at least one recycle, inside the wall budget. *)
let test_kv_domains_crash_heals () =
  reset ();
  let p = { small with K.requests = 3000 } in
  let r = K.run_one ~scheme:"RCU" ~plan:"crash-reader" ~substrate:`Domains p in
  Alcotest.(check int) "one crash" 1 r.K.crashes;
  Alcotest.(check int) "no UAF" 0 r.K.uaf;
  Alcotest.(check bool) "inside the wall budget" false r.K.deadline_hit;
  Alcotest.(check bool) "requests served" true (r.K.served > 0);
  Alcotest.(check bool) "healed by recycle" true (r.K.recycles >= 1);
  Alcotest.(check string) "latencies in ns" "ns" r.K.lat_unit

let () =
  Alcotest.run "watchdog"
    [
      ( "ladder",
        [
          Alcotest.test_case "escalation-order" `Quick test_ladder_order;
          Alcotest.test_case "de-escalate-on-recovery" `Quick
            test_deescalate_on_recovery;
          Alcotest.test_case "no-recycle-caps" `Quick
            test_no_recycle_caps_at_quarantine;
          Alcotest.test_case "deferred-recycle-retries" `Quick
            test_deferred_recycle_retries;
          Alcotest.test_case "seed-deterministic" `Quick test_same_seed_same_walk;
        ] );
      ("admission", [ Alcotest.test_case "backpressure" `Quick test_admission ]);
      ( "scoped",
        [
          Alcotest.test_case "crash-mid-section" `Quick
            test_scoped_crash_mid_section;
        ] );
      ( "kvservice",
        [
          Alcotest.test_case "smoke" `Quick test_kv_smoke;
          Alcotest.test_case "deterministic" `Quick test_kv_deterministic;
          Alcotest.test_case "crash-heals" `Quick test_kv_crash_heals;
        ] );
      ( "domains",
        [
          Alcotest.test_case "wall-paced ladder" `Quick test_domains_ladder_walk;
          Alcotest.test_case "de-escalate on recovery" `Quick
            test_domains_deescalate;
          Alcotest.test_case "recycle waits for holder" `Quick
            test_domains_recycle_waits_for_holder;
          Alcotest.test_case "kv crash-heals on domains" `Quick
            test_kv_domains_crash_heals;
        ] );
    ]
