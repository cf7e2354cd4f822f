(* Robustness properties as executable assertions: the behaviours the
   paper's §5 analysis and §6 evaluation claim, checked on the simulator.

   - HP bounds its footprint by the number of shields, period.
   - RCU's footprint under a long-running reader grows with the reader's
     operation length; HP-BRCU's does not.
   - A *stalled* reader (preempted mid-critical-section) blocks RCU and
     HP-RCU reclamation but not HP-BRCU's (the BRCU difference).
   - NBR starves long readers; HP-BRCU readers keep completing. *)

module Alloc = Hpbrcu_alloc.Alloc
module Sched = Hpbrcu_runtime.Sched
module Fault = Hpbrcu_runtime.Fault
module Rng = Hpbrcu_runtime.Rng
module Config = Hpbrcu_core.Config

let small =
  { Config.default with batch = 16; max_local_tasks = 8; force_threshold = 2;
    backup_period = 16; max_steps = 16 }

(* [with_small name f] — [f] over a fresh domain of [name] under [small],
   counting allocator. *)
let with_small name f =
  let module Schemes = Hpbrcu_schemes.Schemes in
  Schemes.with_domain (fst (Schemes.find name), small) (fun (module D) ->
      Alloc.reset ();
      Alloc.set_strict false;
      f (module D.S : Hpbrcu_core.Smr_intf.S))

(* The stalled-reader plan: each reader (tids 0 and 1) is suspended for
   300k ticks at every 1500th yield, i.e. preempted mid-operation. *)
let stalled_readers =
  let rule tid =
    { Fault.site = Fault.Yield; tid; start = 1499; period = 1500;
      action = Fault.Stall 300_000 }
  in
  { Fault.label = "stalled-readers"; rules = [ rule 0; rule 1 ] }

(* Run the long-running-reads workload for a scheme over a list flavour,
   in fiber mode with a fixed op budget (deterministic). *)
let longrun scheme ~range ~stall =
  with_small scheme @@ fun (module S) ->
  let module L = Hpbrcu_ds.Harris_list.Make_hhs (S) in
  let t = L.create () in
  let s0 = L.session t in
  let rng = Rng.create ~seed:5 in
  let n = ref 0 in
  while !n < range / 2 do
    if L.insert t s0 (Rng.int rng range) 0 then incr n
  done;
  L.close_session s0;
  Alloc.reset_peak ();
  if stall then Fault.install stalled_readers;
  let reader_ops = Atomic.make 0 in
  let writers_live = Atomic.make 2 in
  let contended_reader_ops = Atomic.make 0 in
  Sched.run (Sched.Fibers { seed = 9; switch_every = 2 }) ~nthreads:4 (fun tid ->
      let s = L.session t in
      let rng = Rng.create ~seed:(tid * 131) in
      if tid < 2 then begin
        (* Readers: run long gets while any writer is still churning (the
           contended phase is where starvation shows), up to a cap. *)
        Sched.set_deadline (Unix.gettimeofday () +. 10.0);
        (try
           while Atomic.get writers_live > 0 && Atomic.get reader_ops < 500 do
             ignore (L.get t s (Rng.int rng range) : bool);
             Atomic.incr reader_ops;
             if Atomic.get writers_live > 0 then
               Atomic.incr contended_reader_ops
           done
         with Sched.Deadline -> ());
        Sched.clear_deadline ()
      end
      else begin
        for _ = 1 to 3000 do
          let k = Rng.int rng 32 in
          if Rng.bool rng then ignore (L.insert t s k 0 : bool)
          else ignore (L.remove t s k : bool)
        done;
        Atomic.decr writers_live
      end;
      L.close_session s);
  Fault.clear ();
  (Alloc.peak_unreclaimed (), Atomic.get contended_reader_ops)

let test_hp_bounded_by_shields () =
  with_small "HP" @@ fun (module S) ->
  let module L = Hpbrcu_ds.Hm_list.Make (S) in
  let t = L.create () in
  Sched.run (Sched.Fibers { seed = 4; switch_every = 2 }) ~nthreads:4 (fun tid ->
      let s = L.session t in
      let rng = Rng.create ~seed:tid in
      for _ = 1 to 2500 do
        let k = Rng.int rng 48 in
        if Rng.bool rng then ignore (L.insert t s k 0 : bool)
        else ignore (L.remove t s k : bool)
      done;
      L.close_session s);
  (* Bound: shields (≈ 7/session × 4) + batch slack (16/thread). *)
  let bound = (4 * 16) + (4 * 16) in
  let peak = Alloc.peak_unreclaimed () in
  Alcotest.(check bool)
    (Printf.sprintf "HP peak %d ≤ %d" peak bound)
    true (peak <= bound)

(* RCU's peak grows ~linearly with reader op length; HP-BRCU's stays flat.
   Compare peaks at range 512 vs 4096: RCU must grow markedly, HP-BRCU by
   far less. *)
let test_growth_rcu_vs_hpbrcu () =
  let p_r_small, _ = longrun "RCU" ~range:512 ~stall:false in
  let p_r_large, _ = longrun "RCU" ~range:4096 ~stall:false in
  let p_b_small, _ = longrun "HP-BRCU" ~range:512 ~stall:false in
  let p_b_large, _ = longrun "HP-BRCU" ~range:4096 ~stall:false in
  Alcotest.(check bool)
    (Printf.sprintf "RCU grows: %d -> %d" p_r_small p_r_large)
    true
    (p_r_large > 2 * p_r_small);
  Alcotest.(check bool)
    (Printf.sprintf "HP-BRCU stays bounded: %d -> %d" p_b_small p_b_large)
    true
    (p_b_large < 4 * max 32 p_b_small)

(* Stalled readers: HP-BRCU's peak stays near its no-stall level; RCU's
   inflates under the same injected stalls. *)
let test_stall_robustness () =
  let p_rcu, _ = longrun "RCU" ~range:1024 ~stall:true in
  let p_brcu, _ = longrun "HP-BRCU" ~range:1024 ~stall:true in
  Alcotest.(check bool)
    (Printf.sprintf "stalled: RCU %d vs HP-BRCU %d" p_rcu p_brcu)
    true
    (p_brcu * 2 < p_rcu)

(* The stall plan is the only stall path and [Fault.install] restarts its
   occurrence counters, so a stalled cell is a pure function of its seeds:
   the same cell twice in one process gives the same peak. *)
let test_stall_repeats () =
  let p1, _ = longrun "RCU" ~range:1024 ~stall:true in
  let p2, _ = longrun "RCU" ~range:1024 ~stall:true in
  Alcotest.(check int) "stalled RCU peak, second run" p1 p2

(* Long-running readers starve under NBR but not under HP-BRCU: while the
   writers churn, NBR readers complete (almost) no operations — every
   neutralization restarts them from the entry point — whereas HP-BRCU
   readers keep finishing from their checkpoints. *)
let test_nbr_starves_hpbrcu_does_not () =
  let _, ops_nbr = longrun "NBR" ~range:4096 ~stall:false in
  let _, ops_brcu = longrun "HP-BRCU" ~range:4096 ~stall:false in
  Alcotest.(check bool)
    (Printf.sprintf "contended reader completions: NBR %d vs HP-BRCU %d"
       ops_nbr ops_brcu)
    true
    (ops_brcu > 4 * max 1 ops_nbr)

let () =
  Alcotest.run "bounds"
    [
      ( "robustness",
        [
          Alcotest.test_case "hp-shield-bound" `Quick test_hp_bounded_by_shields;
          Alcotest.test_case "rcu-grows-hpbrcu-flat" `Quick test_growth_rcu_vs_hpbrcu;
          Alcotest.test_case "stall-robustness" `Quick test_stall_robustness;
          Alcotest.test_case "stall-repeats" `Quick test_stall_repeats;
          Alcotest.test_case "nbr-starvation" `Quick test_nbr_starves_hpbrcu_does_not;
        ] );
    ]
