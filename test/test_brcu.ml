(* BRCU semantics (Algorithms 5 and 6): critical sections, rollback,
   selective signaling, abort-masking, self-neutralization, and the
   garbage bound of §5. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Config = Hpbrcu_core.Config
module Stats = Hpbrcu_runtime.Stats
module B = Hpbrcu_schemes.Brcu_core
module Dom = Hpbrcu_core.Smr_intf.Dom

module Cfg = struct
  let config =
    { Config.default with batch = 8; max_local_tasks = 8; force_threshold = 2 }
end

let reset () =
  Alloc.reset ();
  Alloc.set_strict true

(* Fresh BRCU domain per test so counters are isolated; torn down at the
   end so the watermark slot is returned. *)
let with_brcu ?(cfg = Cfg.config) f =
  let bd = B.create (Dom.make ~scheme:"BRCU" ~label:"test" cfg) in
  Fun.protect
    ~finally:(fun () ->
      if not (Dom.destroyed bd.B.meta) then begin
        Dom.begin_destroy ~force:true bd.B.meta;
        B.drain bd;
        Dom.finish_destroy bd.B.meta
      end)
    (fun () -> f bd)

let test_crit_returns () =
  reset ();
  with_brcu (fun bd ->
      let h = B.register bd in
      Alcotest.(check int) "result" 42 (B.crit h (fun () -> 42));
      Alcotest.(check bool) "out after" false (B.in_cs h);
      B.unregister h)

let test_crit_reraises () =
  reset ();
  with_brcu (fun bd ->
      let h = B.register bd in
      (try B.crit h (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check bool) "status restored after exception" false
        (B.in_cs h);
      B.unregister h)

let test_rollback_reruns_body () =
  reset ();
  with_brcu (fun bd ->
      let h = B.register bd in
      let attempts = ref 0 in
      let r =
        B.crit h (fun () ->
            incr attempts;
            if !attempts < 3 then raise B.Rollback;
            "done")
      in
      Alcotest.(check string) "eventually returns" "done" r;
      Alcotest.(check int) "re-ran to the checkpoint" 3 !attempts;
      B.unregister h)

(* A lagging reader is neutralized after force_threshold flushes; a
   current-epoch reader is not (selective signaling). *)
let test_selective_signal () =
  reset ();
  with_brcu (fun bd ->
      let rolled_back = ref 0 and completed = ref false in
      Sched.run
        (Sched.Fibers { seed = 3; switch_every = 1 })
        ~nthreads:2
        (fun tid ->
          if tid = 0 then begin
            let h = B.register bd in
            (* Reader: long critical section; counts rollbacks. *)
            (try
               B.crit h (fun () ->
                   for _ = 1 to 5000 do
                     B.poll h;
                     Sched.yield ()
                   done;
                   completed := true)
             with Not_found -> ());
            B.unregister h
          end
          else begin
            let h = B.register bd in
            (* Writer: defer a lot, forcing epoch advances past the
               reader. *)
            for _ = 1 to 200 do
              let b = Alloc.block () in
              Alloc.retire b;
              B.defer h b;
              Sched.yield ()
            done;
            B.flush h;
            B.unregister h
          end);
      ignore !rolled_back;
      let stats = B.stats bd in
      Alcotest.(check bool) "signals were sent" true (stats.Stats.signals > 0);
      Alcotest.(check bool)
        "rollbacks happened" true
        (stats.Stats.rollbacks > 0))

(* Abort-masking: a signal delivered inside a mask defers the rollback to
   the region's exit, and the masked body is never torn. *)
let test_mask_defers_rollback () =
  reset ();
  with_brcu (fun bd ->
      let mask_completed = ref 0 and rollbacks_seen = ref 0 in
      Sched.run
        (Sched.Fibers { seed = 5; switch_every = 1 })
        ~nthreads:2
        (fun tid ->
          if tid = 0 then begin
            let h = B.register bd in
            let attempts = ref 0 in
            ignore
              (B.crit h (fun () ->
                   incr attempts;
                   if !attempts > 1 then incr rollbacks_seen;
                   if !attempts <= 2 then begin
                     (* Spin inside a mask until the signal has arrived;
                        the handler must NOT abort us mid-mask. *)
                     B.mask h (fun () ->
                         for _ = 1 to 300 do
                           B.poll h;
                           Sched.yield ()
                         done;
                         incr mask_completed)
                     (* On exit the deferred rollback fires (if
                        signaled). *)
                   end)
                : unit);
            B.unregister h
          end
          else begin
            let h = B.register bd in
            for _ = 1 to 120 do
              let b = Alloc.block () in
              Alloc.retire b;
              B.defer h b;
              Sched.yield ()
            done;
            B.flush h;
            B.unregister h
          end);
      (* Every mask body that started ran to completion (never torn). *)
      Alcotest.(check bool) "mask bodies completed" true (!mask_completed >= 1);
      let stats = B.stats bd in
      if stats.Stats.signals > 0 then
        Alcotest.(check bool) "rollback deferred to mask exit" true
          (!rollbacks_seen >= 1 || !mask_completed >= 1))

(* Defer runs tasks only after concurrent critical sections end
   (Theorem 5.1's guarantee, observed through the allocator).  Signals are
   disabled here: with them, a doomed-but-not-yet-rolled-back reader may
   legally overlap task execution (it polls before every access — the
   cooperative-delivery substitution of DESIGN.md §2.2), so the clean
   blocking property is only observable in the unsignaled regime. *)
let test_defer_waits_for_cs () =
  reset ();
  with_brcu
    ~cfg:{ Cfg.config with Config.force_threshold = max_int }
    (fun bd ->
      let violation = ref false in
      Sched.run
        (Sched.Fibers { seed = 7; switch_every = 1 })
        ~nthreads:2
        (fun tid ->
          if tid = 0 then begin
            let h = B.register bd in
            (try
               B.crit h (fun () ->
                   (* If any task deferred *during* this CS runs before it
                      ends, the reclaimed count would jump while we
                      watch. *)
                   let seen = (Alloc.stats ()).Alloc.reclaimed in
                   for _ = 1 to 500 do
                     B.poll h;
                     Sched.yield ();
                     if
                       (Alloc.stats ()).Alloc.reclaimed
                       > seen + Cfg.config.batch
                     then violation := true
                   done)
             with B.Rollback -> ());
            B.unregister h
          end
          else begin
            let h = B.register bd in
            for _ = 1 to 60 do
              let b = Alloc.block () in
              Alloc.retire b;
              B.defer h b;
              Sched.yield ()
            done;
            B.flush h;
            B.unregister h
          end);
      (* Tasks deferred while the reader was pinned at the then-current
         epoch may only run after it is signaled out; a small leak-through
         equal to one epoch's backlog is legal, more is not.  (The reader's
         rollback means the CS ended — then execution is legal, so we only
         check the strictly-inside-CS window via the flag above.) *)
      Alcotest.(check bool)
        "no defer executed inside a live CS beyond bound" false !violation)

(* The §5 bound: with G = max_local_tasks × force_threshold, N threads and
   H shields, peak unreclaimed ≤ 2GN + GN² + H (we run HP-BRCU under churn
   and check the measured peak against the formula). *)
let test_hpbrcu_bound () =
  reset ();
  Alloc.set_strict false;
  let module Schemes = Hpbrcu_schemes.Schemes in
  let config =
    { Config.default with batch = 16; max_local_tasks = 8; force_threshold = 2 }
  in
  Schemes.with_domain (fst (Schemes.find "HP-BRCU"), config) @@ fun (module D) ->
  let module L = Hpbrcu_ds.Harris_list.Make_hhs (D.S) in
  let nthreads = 6 in
  let t = L.create () in
  Sched.run (Sched.Fibers { seed = 11; switch_every = 2 }) ~nthreads (fun tid ->
      let s = L.session t in
      let rng = Hpbrcu_runtime.Rng.create ~seed:(tid * 31 + 1) in
      for _ = 1 to 2000 do
        let k = Hpbrcu_runtime.Rng.int rng 64 in
        match Hpbrcu_runtime.Rng.int rng 3 with
        | 0 -> ignore (L.insert t s k 0 : bool)
        | 1 -> ignore (L.remove t s k : bool)
        | _ -> ignore (L.get t s k : bool)
      done;
      L.close_session s);
  let g = 8 * 2 in
  let n = nthreads in
  let shields = 16 * n (* generous per-session shield count *) in
  let bound = (2 * g * n) + (g * n * n) + shields in
  let peak = Alloc.peak_unreclaimed () in
  Alcotest.(check bool)
    (Printf.sprintf "peak %d within 2GN+GN^2+H = %d" peak bound)
    true (peak <= bound)

(* [traverse_steps] is published when the critical section exits, from
   a counter the walker bumps once per step, so it must still equal the
   number of steps exactly — after a plain traversal, after one that
   answers [walk_fail], and after ones that a neutralization signal rolled
   back mid-walk.  The wrapper drives the data structure's walker one step
   at a time ([walk 1]), counting each step before taking it, and can
   answer [walk_fail] on one chosen step instead of taking it. *)
module Counting_steps (S : Hpbrcu_core.Smr_intf.S) = struct
  include S
  module SI = Hpbrcu_core.Smr_intf

  let calls = ref 0
  let fail_at = ref 0

  let counting (w : S.shield SI.walker) =
    let rec walk (c : S.shield SI.walker) n =
      if n = 0 then SI.walk_more
      else begin
        incr calls;
        c.steps <- c.steps + 1;
        if !calls = !fail_at then SI.walk_fail
        else
          let r = w.walk 1 in
          if r = SI.walk_more then walk c (n - 1) else r
      end
    in
    let rec c =
      {
        SI.init = w.init;
        walk = (fun n -> walk c n);
        save = w.save;
        restore = w.restore;
        protect = w.protect;
        steps = 0;
      }
    in
    c

  let traverse h ~prot ~backup w = S.traverse h ~prot ~backup (counting w)
end

let test_traverse_steps_exact () =
  reset ();
  let module Schemes = Hpbrcu_schemes.Schemes in
  let config =
    { Config.default with batch = 4; max_local_tasks = 4; force_threshold = 1 }
  in
  Schemes.with_domain (fst (Schemes.find "HP-BRCU"), config) @@ fun (module D) ->
  let module C = Counting_steps (D.S) in
  let module L = Hpbrcu_ds.Harris_list.Make_hhs (C) in
  let t = L.create () in
  (* The tick deadline turns a walker that loses its place (and so
     walks forever) into a [Sched.Deadline] failure. *)
  let fibers nthreads body =
    Sched.set_tick_deadline 20_000_000;
    Fun.protect ~finally:Sched.clear_tick_deadline @@ fun () ->
    Sched.run (Sched.Fibers { seed = 7; switch_every = 1 }) ~nthreads (fun tid ->
        let s = L.session t in
        body tid s;
        L.close_session s)
  in
  let exact what =
    Alcotest.(check int) what !C.calls (D.S.stats ()).Stats.traverse_steps
  in
  fibers 1 (fun _ s ->
      for k = 0 to 127 do
        ignore (L.insert t s (2 * k) 0 : bool)
      done);
  exact "prefill";
  let before = !C.calls in
  fibers 1 (fun _ s -> Alcotest.(check bool) "get" true (L.get t s 200));
  Alcotest.(check bool) "get walked the list" true (!C.calls - before > 100);
  exact "plain get";
  C.fail_at := !C.calls + 50;
  fibers 1 (fun _ s -> Alcotest.(check bool) "get after Fail" true (L.get t s 200));
  Alcotest.(check bool) "walk answered fail" true (!C.calls > !C.fail_at);
  exact "fail";
  (* A reader walking to the tail while a writer churns the head: the
     writer's forced advances neutralize the lagging reader mid-walk. *)
  fibers 2 (fun tid s ->
      for i = 1 to 100 do
        if tid = 0 then ignore (L.get t s 255 : bool)
        else if i land 1 = 0 then ignore (L.insert t s 1 0 : bool)
        else ignore (L.remove t s 1 : bool)
      done);
  let st = D.S.stats () in
  Alcotest.(check bool) "a traversal was rolled back" true
    (st.Stats.rollbacks > 0 && st.Stats.traverse_resumes > st.Stats.traverses);
  exact "rollback"

(* The walker's budgets are invisible to the answers: a seeded
   single-threaded op sequence gives the same answers and the same final
   contents whether the scheme walks one step per budget
   ([backup_period = max_steps = 1], so HP-BRCU checkpoints and HP-RCU
   saves and restores at every node) or with the default budgets. *)
module type MAP_OF = functor (S : Hpbrcu_core.Smr_intf.S) -> Hpbrcu_ds.Ds_intf.MAP

let structures : (string * (module MAP_OF)) list =
  let open Hpbrcu_ds in
  [
    ("HList", (module Harris_list.Make));
    ("HHSList", (module Harris_list.Make_hhs));
    ("HMList", (module Hm_list.Make));
    ("LazyList", (module Lazy_list.Make));
    ("SkipList", (module Skiplist.Make));
    ("NMTree", (module Nmtree.Make));
    ("EFRB-BST", (module Efrb_bst.Make));
  ]

(* The op sequence's answers, then the final contents. *)
let answers ~scheme ~config (module M : MAP_OF) =
  reset ();
  let module Schemes = Hpbrcu_schemes.Schemes in
  Schemes.with_domain (fst (Schemes.find scheme), config) @@ fun (module D) ->
  let module L = M (D.S) in
  let t = L.create () in
  let answers = ref [] and contents = ref [] in
  (* A walker that loses its place under a small budget walks forever;
     the tick deadline turns that into a [Sched.Deadline] failure. *)
  Sched.set_tick_deadline 2_000_000;
  Fun.protect ~finally:Sched.clear_tick_deadline @@ fun () ->
  Sched.run (Sched.Fibers { seed = 3; switch_every = 1 }) ~nthreads:1 (fun _ ->
      let s = L.session t in
      let rng = Hpbrcu_runtime.Rng.create ~seed:11 in
      for _ = 1 to 600 do
        let k = Hpbrcu_runtime.Rng.int rng 64 in
        let r =
          match Hpbrcu_runtime.Rng.int rng 3 with
          | 0 -> L.insert t s k k
          | 1 -> L.remove t s k
          | _ -> L.get t s k
        in
        answers := r :: !answers
      done;
      contents := List.filter (fun k -> L.get t s k) (List.init 64 Fun.id);
      L.close_session s);
  (List.rev !answers, !contents)

let test_budgets_invisible () =
  let one = { Config.default with backup_period = 1; max_steps = 1 } in
  List.iter
    (fun scheme ->
      List.iter
        (fun (ds, m) ->
          (* EFRB cannot revalidate a checkpoint (every resume restarts
             the search), so under HP-RCU a search deeper than
             [max_steps] never completes: with one-step phases, no
             search does.  The budget is visible there by design. *)
          if not (ds = "EFRB-BST" && scheme = "HP-RCU") then begin
            let what = Printf.sprintf "%s(%s)" ds scheme in
            let a, c = answers ~scheme ~config:Config.default m in
            let a1, c1 = answers ~scheme ~config:one m in
            Alcotest.(check (list bool)) (what ^ " answers") a a1;
            Alcotest.(check (list int)) (what ^ " contents") c c1;
            Alcotest.(check bool) (what ^ " not empty") true (c <> [])
          end)
        structures)
    [ "NR"; "HP-RCU"; "HP-BRCU" ]

(* A session is not bound to the structure it was opened on: HashMap
   opens one on its first bucket and walks every bucket with it.  Each
   walk must therefore follow the structure the operation names. *)
let test_session_follows_structure () =
  List.iter
    (fun scheme ->
      List.iter
        (fun (ds, (module M : MAP_OF)) ->
          reset ();
          let module Schemes = Hpbrcu_schemes.Schemes in
          Schemes.with_domain (Schemes.find scheme) @@ fun (module D) ->
          let module L = M (D.S) in
          let t1 = L.create () and t2 = L.create () in
          Sched.run (Sched.Fibers { seed = 5; switch_every = 1 }) ~nthreads:1
            (fun _ ->
              let s = L.session t1 in
              for k = 0 to 9 do
                ignore (L.insert t2 s k k : bool)
              done;
              for k = 0 to 9 do
                let what = Printf.sprintf "%s(%s) key %d" ds scheme k in
                Alcotest.(check bool) (what ^ " in t2") true (L.get t2 s k);
                Alcotest.(check bool) (what ^ " not in t1") false (L.get t1 s k)
              done;
              L.close_session s))
        structures)
    [ "NR"; "HP-BRCU" ]

let () =
  Alcotest.run "brcu"
    [
      ( "crit",
        [
          Alcotest.test_case "returns" `Quick test_crit_returns;
          Alcotest.test_case "reraises" `Quick test_crit_reraises;
          Alcotest.test_case "rollback-reruns" `Quick test_rollback_reruns_body;
        ] );
      ( "signals",
        [
          Alcotest.test_case "selective" `Quick test_selective_signal;
          Alcotest.test_case "mask-defers" `Quick test_mask_defers_rollback;
          Alcotest.test_case "defer-waits" `Quick test_defer_waits_for_cs;
        ] );
      ("bound", [ Alcotest.test_case "2GN+GN2+H" `Quick test_hpbrcu_bound ]);
      ( "traverse",
        [
          Alcotest.test_case "steps-exact" `Quick test_traverse_steps_exact;
          Alcotest.test_case "budgets-invisible" `Quick test_budgets_invisible;
          Alcotest.test_case "session-follows-structure" `Quick
            test_session_follows_structure;
        ] );
    ]
