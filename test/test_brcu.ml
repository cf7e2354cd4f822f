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

(* [status] is owner-only: its handler runs in the owner's context (at
   the owner's polls, or on its self-neutralization), so each case below
   runs one thread, on either substrate, and must behave identically.
   With one-task batches and a force threshold of 1, every [defer] flushes,
   and from the second flush of a section on the section's own reader
   lags the global epoch, so the flush neutralizes itself. *)
let self_cfg = { Cfg.config with max_local_tasks = 1; force_threshold = 1 }

let substrates =
  [ ("fibers", Sched.Fibers { seed = 1; switch_every = 1 }); ("domains", Sched.Domains) ]

let on_each_substrate body () =
  List.iter
    (fun (name, mode) ->
      reset ();
      with_brcu ~cfg:self_cfg (fun bd ->
          Sched.run mode ~nthreads:1 (fun _ ->
              let h = B.register bd in
              body name bd h;
              Alcotest.(check bool) (name ^ ": status Out at the end") false (B.in_cs h);
              B.unregister h)))
    substrates

let defer_fresh h =
  let b = Alloc.block () in
  Alloc.retire b;
  B.defer h b

(* Algorithm 5 lines 25-34 with no readers: a flush pushes the batch at
   the current epoch and advances, but the batch's own stamp is not yet
   expired, so it stays on TASKS.  [pending] leaves the handle there,
   batch empty, one block stranded. *)
let pending f =
  reset ();
  with_brcu (fun bd ->
      let h = B.register bd in
      let e0 = B.epoch bd in
      defer_fresh h;
      B.flush_and_advance h;
      Alcotest.(check int) "batch flush advances" (e0 + 1) (B.epoch bd);
      Alcotest.(check int) "its batch is not yet expired" 1
        (Alloc.current_unreclaimed ());
      f bd h e0;
      B.unregister h)

(* An empty local batch is a no-op, even with work stranded on TASKS:
   no epoch advance, nothing reclaimed. *)
let test_empty_batch_noop () =
  pending (fun bd h e0 ->
      let advances = (B.stats bd).Stats.advances in
      B.flush_and_advance h;
      Alcotest.(check int) "epoch unchanged" (e0 + 1) (B.epoch bd);
      Alcotest.(check int) "no advance counted" advances
        (B.stats bd).Stats.advances;
      Alcotest.(check int) "stranded block stays" 1
        (Alloc.current_unreclaimed ()))

(* [flush]'s second advance attempt is what pushes stranded work
   through: one more epoch expires the pending batch. *)
let test_flush_expires_stranded () =
  pending (fun bd h e0 ->
      B.flush h;
      Alcotest.(check int) "second attempt advances" (e0 + 2) (B.epoch bd);
      Alcotest.(check int) "stranded block reclaimed" 0
        (Alloc.current_unreclaimed ()))

(* Self-neutralized three times inside a mask: the mask body completes,
   and exactly one rollback fires, at the mask's exit. *)
let test_self_neutralization_in_mask =
  on_each_substrate @@ fun name bd h ->
  let runs = ref 0 and mask_done = ref 0 and after_mask = ref 0 in
  B.crit h (fun () ->
      incr runs;
      if !runs = 1 then begin
        B.mask h (fun () ->
            for _ = 1 to 4 do
              defer_fresh h
            done;
            incr mask_done);
        incr after_mask
      end);
  let st = B.stats bd in
  Alcotest.(check int) (name ^ ": self-signals") 3 st.Stats.signals;
  Alcotest.(check int) (name ^ ": one rollback") 1 st.Stats.rollbacks;
  Alcotest.(check int) (name ^ ": mask body completed") 1 !mask_done;
  Alcotest.(check int) (name ^ ": rolled back at the mask's exit") 0 !after_mask;
  Alcotest.(check int) (name ^ ": section re-ran once") 2 !runs

(* A delivery while Out is acknowledged without a rollback, both when a
   poll finds it and when the next section's entry consumes it. *)
let test_out_delivery_quiet =
  on_each_substrate @@ fun name bd h ->
  let box = h.B.l.B.box in
  let post () =
    ignore (Hpbrcu_runtime.Signal.send box ~is_out:(fun () -> true) : Hpbrcu_runtime.Signal.outcome)
  in
  post ();
  B.poll h;
  post ();
  let runs = ref 0 in
  B.crit h (fun () ->
      incr runs;
      B.poll h);
  Alcotest.(check int) (name ^ ": both deliveries acknowledged") 2
    (Hpbrcu_runtime.Signal.delivered box);
  Alcotest.(check int) (name ^ ": no rollback") 0 (B.stats bd).Stats.rollbacks;
  Alcotest.(check int) (name ^ ": section ran once") 1 !runs

(* A rollback in a bare section aborts the section at the
   self-neutralization itself, and the re-run leaves the reader Out. *)
let test_bare_rollback =
  on_each_substrate @@ fun name bd h ->
  let runs = ref 0 and torn = ref true in
  B.crit h (fun () ->
      incr runs;
      if !runs = 1 then begin
        for _ = 1 to 4 do
          defer_fresh h
        done;
        torn := false
      end);
  Alcotest.(check bool) (name ^ ": aborted mid-body") true !torn;
  Alcotest.(check int) (name ^ ": one rollback") 1 (B.stats bd).Stats.rollbacks;
  Alcotest.(check int) (name ^ ": section re-ran once") 2 !runs

(* The hunt's [HP-BRCU!nomask] entry against HP-BRCU, through the scheme
   surface: a section retires four blocks inside a mask, each retire
   flushes, and the second one self-neutralizes.  Under HP-BRCU the mask
   body completes and the section rolls back once, at the mask's exit;
   under the mutant the body is torn at the self-neutralization. *)
let test_nomask_entry () =
  List.iter
    (fun (entry, completes) ->
      List.iter
        (fun (sub, mode) ->
          reset ();
          let name = entry ^ " on " ^ sub in
          let impl = fst (Hpbrcu_workload.Matrix.find_hunt_impl entry) in
          Hpbrcu_schemes.Schemes.with_domain (impl, self_cfg) @@ fun (module X) ->
          let runs = ref 0 and body_done = ref false in
          Sched.run mode ~nthreads:1 (fun _ ->
              let h = X.register X.it in
              X.crit h (fun () ->
                  incr runs;
                  if !runs = 1 then
                    X.mask h (fun () ->
                        for _ = 1 to 4 do
                          X.retire h (Alloc.block ())
                        done;
                        body_done := true));
              X.unregister h);
          Alcotest.(check bool) (name ^ ": mask body completed") completes !body_done;
          Alcotest.(check int) (name ^ ": one rollback") 1 (X.stats X.it).Stats.rollbacks;
          Alcotest.(check int) (name ^ ": section re-ran once") 2 !runs)
        substrates)
    [ ("HP-BRCU", true); ("HP-BRCU!nomask", false) ]

(* A checkpoint's shield store polls the signal box of the session that
   owns the shield.  One fiber registers handle A, then handle B, in one
   HP-BRCU domain.  Inside A's section two of B's retires flush: the
   first advances the epoch past A's announcement, so the second
   neutralizes A.  The next protect on A's shield must roll A's section
   back, although B is the handle the fiber registered last. *)
let test_checkpoint_polls_own_handle () =
  reset ();
  let module X = Hpbrcu_schemes.Hp_brcu.Impl in
  let d = X.create ~label:"test" self_cfg in
  let runs = ref 0 in
  Sched.run (Sched.Fibers { seed = 1; switch_every = 1 }) ~nthreads:1 (fun _ ->
      let a = X.register d in
      let b = X.register d in
      let s = X.new_shield a in
      let blk = Alloc.block () in
      X.crit a (fun () ->
          incr runs;
          if !runs = 1 then begin
            for _ = 1 to 2 do
              X.retire b (Alloc.block ())
            done;
            X.protect s blk
          end);
      X.clear s;
      X.unregister b;
      X.unregister a);
  Alcotest.(check int) "one rollback" 1 (X.stats d).Stats.rollbacks;
  Alcotest.(check int) "section re-ran once" 2 !runs;
  X.destroy ~force:true d;
  Alloc.reset ()

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
  let module L = Hpbrcu_ds.Harris_list.Make_hhs (D) in
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

  (* Totals across every thread: steps, traversals, and section runs
     (each begins with [init] or [restore]). *)
  let calls = Atomic.make 0
  let traversals = Atomic.make 0
  let resumes = Atomic.make 0
  let fail_at = ref 0

  let counting (w : S.shield SI.walker) =
    let rec walk (c : S.shield SI.walker) n =
      if n = 0 then SI.walk_more
      else begin
        let call = Atomic.fetch_and_add calls 1 + 1 in
        c.steps <- c.steps + 1;
        if call = !fail_at then SI.walk_fail
        else
          let r = w.walk 1 in
          if r = SI.walk_more then walk c (n - 1) else r
      end
    in
    let rec c =
      {
        SI.init =
          (fun () ->
            Atomic.incr resumes;
            w.init ());
        walk = (fun n -> walk c n);
        save = w.save;
        restore =
          (fun i ->
            Atomic.incr resumes;
            w.restore i);
        protect = w.protect;
        resumable = w.resumable;
        steps = 0;
      }
    in
    c

  let traverse h ~hold ~prot ~backup w =
    Atomic.incr traversals;
    S.traverse h ~hold ~prot ~backup (counting w)

  (* The scheme's published counters equal the walker's totals. *)
  let exact what =
    let st = S.stats S.it in
    Alcotest.(check int) (what ^ ": steps") (Atomic.get calls) st.Stats.traverse_steps;
    Alcotest.(check int) (what ^ ": traverses") (Atomic.get traversals) st.Stats.traverses;
    Alcotest.(check int) (what ^ ": resumes") (Atomic.get resumes) st.Stats.traverse_resumes
end

let test_traverse_steps_exact () =
  reset ();
  let module Schemes = Hpbrcu_schemes.Schemes in
  let config =
    { Config.default with batch = 4; max_local_tasks = 4; force_threshold = 1 }
  in
  Schemes.with_domain (fst (Schemes.find "HP-BRCU"), config) @@ fun (module D) ->
  let module C = Counting_steps (D) in
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
  let exact = C.exact in
  fibers 1 (fun _ s ->
      for k = 0 to 127 do
        ignore (L.insert t s (2 * k) 0 : bool)
      done);
  exact "prefill";
  let before = Atomic.get C.calls in
  fibers 1 (fun _ s -> Alcotest.(check bool) "get" true (L.get t s 200));
  Alcotest.(check bool) "get walked the list" true (Atomic.get C.calls - before > 100);
  exact "plain get";
  C.fail_at := Atomic.get C.calls + 50;
  fibers 1 (fun _ s -> Alcotest.(check bool) "get after Fail" true (L.get t s 200));
  Alcotest.(check bool) "walk answered fail" true (Atomic.get C.calls > !C.fail_at);
  exact "fail";
  (* A reader walking to the tail while a writer churns the head: the
     writer's forced advances neutralize the lagging reader mid-walk. *)
  fibers 2 (fun tid s ->
      for i = 1 to 100 do
        if tid = 0 then ignore (L.get t s 255 : bool)
        else if i land 1 = 0 then ignore (L.insert t s 1 0 : bool)
        else ignore (L.remove t s 1 : bool)
      done);
  let st = D.stats D.it in
  Alcotest.(check bool) "a traversal was rolled back" true
    (st.Stats.rollbacks > 0 && st.Stats.traverse_resumes > st.Stats.traverses);
  exact "rollback"

(* The same totals on two real domains: each handle tallies into plain
   fields and folds them into the domain's counters when its session
   closes, so once both sessions are closed the counters are exact. *)
let test_traverse_steps_exact_domains () =
  reset ();
  let module Schemes = Hpbrcu_schemes.Schemes in
  let config =
    { Config.default with batch = 4; max_local_tasks = 4; force_threshold = 1 }
  in
  Schemes.with_domain (fst (Schemes.find "HP-BRCU"), config) @@ fun (module D) ->
  let module C = Counting_steps (D) in
  let module L = Hpbrcu_ds.Harris_list.Make_hhs (C) in
  let t = L.create () in
  Sched.run Sched.Domains ~nthreads:2 (fun tid ->
      let s = L.session t in
      if tid = 0 then
        for k = 0 to 127 do
          ignore (L.insert t s (2 * k) 0 : bool)
        done;
      L.close_session s);
  C.exact "prefill";
  Sched.run Sched.Domains ~nthreads:2 (fun tid ->
      let s = L.session t in
      for i = 1 to 300 do
        if tid = 0 then ignore (L.get t s 255 : bool)
        else if i land 1 = 0 then ignore (L.insert t s 1 0 : bool)
        else ignore (L.remove t s 1 : bool)
      done;
      L.close_session s);
  Alcotest.(check bool) "traversals ran" true (Atomic.get C.traversals > 600);
  C.exact "two domains"

(* The fold points: a handle's tallies reach the domain's counters at
   [flush] and at [unregister], not before. *)
let test_tallies_fold_points () =
  reset ();
  let module Schemes = Hpbrcu_schemes.Schemes in
  Schemes.with_domain (Schemes.find "HP-BRCU") @@ fun (module D) ->
  let module SI = Hpbrcu_core.Smr_intf in
  let counts () =
    let st = D.stats D.it in
    (st.Stats.traverses, st.Stats.traverse_steps, st.Stats.traverse_resumes)
  in
  let check what expected =
    Alcotest.(check (triple int int int)) what expected (counts ())
  in
  Sched.run (Sched.Fibers { seed = 1; switch_every = 1 }) ~nthreads:1 (fun _ ->
      let h = D.register D.it in
      let prot = [| D.new_shield h |] and backup = [| D.new_shield h |] in
      (* Two steps per traversal, one section run each. *)
      let rec w =
        {
          SI.init = ignore;
          walk =
            (fun _ ->
              w.SI.steps <- w.SI.steps + 2;
              SI.walk_done);
          save = ignore;
          restore = (fun _ -> true);
          protect = ignore;
          resumable = true;
          steps = 0;
        }
      in
      let traverse n =
        for _ = 1 to n do
          Alcotest.(check bool) "done" true (D.traverse h ~hold:true ~prot ~backup w)
        done
      in
      traverse 5;
      check "before flush" (0, 0, 0);
      D.flush h;
      check "after flush" (5, 10, 5);
      traverse 3;
      check "between" (5, 10, 5);
      D.unregister h;
      check "after unregister" (8, 16, 8))

(* The walker's budgets are invisible to the answers: a seeded
   single-threaded op sequence gives the same answers and the same final
   contents whether the scheme walks one step per budget
   ([checkpoint_steps = 1], so HP-BRCU checkpoints and HP-RCU
   saves and restores at every node) or with the default budgets. *)

(* The op sequence's answers, then the final contents. *)
let answers ~scheme ~config (module M : Test_util.MAKE) =
  reset ();
  let module Schemes = Hpbrcu_schemes.Schemes in
  Schemes.with_domain (fst (Schemes.find scheme), config) @@ fun (module D) ->
  let module L = M (D) in
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
  let one = { Config.default with checkpoint_steps = 1 } in
  List.iter
    (fun scheme ->
      List.iter
        (fun (ds, m) ->
          let what = Printf.sprintf "%s(%s)" ds scheme in
          let a, c = answers ~scheme ~config:Config.default m in
          let a1, c1 = answers ~scheme ~config:one m in
          Alcotest.(check (list bool)) (what ^ " answers") a a1;
          Alcotest.(check (list int)) (what ^ " contents") c c1;
          Alcotest.(check bool) (what ^ " not empty") true (c <> []))
        Test_util.structures)
    [ "NR"; "HP-RCU"; "HP-BRCU" ]

(* A session is not bound to the structure it was opened on: HashMap
   opens one on its first bucket and walks every bucket with it.  Each
   walk must therefore follow the structure the operation names. *)
let test_session_follows_structure () =
  List.iter
    (fun scheme ->
      List.iter
        (fun (ds, (module M : Test_util.MAKE)) ->
          reset ();
          let module Schemes = Hpbrcu_schemes.Schemes in
          Schemes.with_domain (Schemes.find scheme) @@ fun (module D) ->
          let module L = M (D) in
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
        Test_util.structures)
    [ "NR"; "HP-BRCU" ]

(* A checkpoint carries a cursor out of its critical section, so a
   traversal publishes one only for a cursor that leaves it: a [get]
   shorter than the budget publishes nothing, an insert publishes its
   destination once, and a rollback before the first periodic checkpoint
   rebuilds the cursor with [init] instead of restoring one.  HP-RCU's
   epoch sections never roll back, so only HP-BRCU and NBR take the
   injected rollback. *)
let test_checkpoint_counts () =
  let module Caps = Hpbrcu_core.Caps in
  (* Table 1's rows; the lazy list and EFRB run under all three. *)
  let row = function
    | "HList" -> Some Caps.HList
    | "HHSList" -> Some Caps.HHSList
    | "HMList" -> Some Caps.HMList
    | "SkipList" -> Some Caps.SkipList
    | "NMTree" -> Some Caps.NMTree
    | "HashMap" -> Some Caps.HashMap
    | _ -> None
  in
  List.iter
    (fun (scheme, rollback) ->
      List.iter
        (fun (ds, (module M : Test_util.MAKE)) ->
          Test_util.with_scheme scheme @@ fun (module S) ->
          let supported =
            match row ds with
            | None -> true
            | Some id ->
                (Hpbrcu_core.Smr_intf.caps (module S)).Caps.supports id <> Caps.No
          in
          if supported then begin
            let module C = Test_util.Walker_protects (S) in
            let module L = M (C) in
            let what = Printf.sprintf "%s(%s)" ds scheme in
            let t = L.create () in
            let s = L.session t in
            for k = 0 to 7 do
              ignore (L.insert t s (2 * k) 0 : bool)
            done;
            let counts f =
              C.reset ();
              let r = f () in
              (r, !C.protects, !C.inits, !C.restores)
            in
            let check label expected got =
              Alcotest.(check (pair bool (triple int int int)))
                (what ^ " " ^ label) expected
                (let r, p, i, rs = got in
                 (r, (p, i, rs)))
            in
            check "get present" (true, (0, 1, 0)) (counts (fun () -> L.get t s 6));
            check "get absent" (false, (0, 1, 0)) (counts (fun () -> L.get t s 7));
            check "insert" (true, (1, 1, 0)) (counts (fun () -> L.insert t s 7 0));
            (match rollback with
            | None -> ()
            | Some e ->
                C.rollback_once := Some e;
                check "get rolled back" (true, (0, 2, 0))
                  (counts (fun () -> L.get t s 6));
                C.rollback_once := Some e;
                check "insert rolled back" (true, (1, 2, 0))
                  (counts (fun () -> L.insert t s 9 0)));
            L.close_session s
          end)
        (Test_util.structures
        @ [ ("HashMap", (module Hpbrcu_ds.Hashmap.Make : Test_util.MAKE)) ]))
    [
      ("HP-BRCU", Some Hpbrcu_schemes.Brcu_core.Rollback);
      ("HP-RCU", None);
      ("NBR", Some Hpbrcu_schemes.Nbr.Rollback);
    ]

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
      ( "owner-status",
        [
          Alcotest.test_case "self-signal-in-mask" `Quick test_self_neutralization_in_mask;
          Alcotest.test_case "out-delivery-quiet" `Quick test_out_delivery_quiet;
          Alcotest.test_case "bare-rollback" `Quick test_bare_rollback;
          Alcotest.test_case "nomask-entry" `Quick test_nomask_entry;
          Alcotest.test_case "checkpoint-polls-own-handle" `Quick
            test_checkpoint_polls_own_handle;
        ] );
      ( "flush",
        [
          Alcotest.test_case "empty-batch-noop" `Quick test_empty_batch_noop;
          Alcotest.test_case "flush-expires-stranded" `Quick
            test_flush_expires_stranded;
        ] );
      ("bound", [ Alcotest.test_case "2GN+GN2+H" `Quick test_hpbrcu_bound ]);
      ( "traverse",
        [
          Alcotest.test_case "steps-exact" `Quick test_traverse_steps_exact;
          Alcotest.test_case "steps-exact-domains" `Quick test_traverse_steps_exact_domains;
          Alcotest.test_case "tallies-fold-points" `Quick test_tallies_fold_points;
          Alcotest.test_case "budgets-invisible" `Quick test_budgets_invisible;
          Alcotest.test_case "session-follows-structure" `Quick
            test_session_follows_structure;
          Alcotest.test_case "checkpoint-counts" `Quick test_checkpoint_counts;
        ] );
    ]
