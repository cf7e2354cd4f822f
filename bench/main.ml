(* The benchmark suite: regenerates every table and figure of the paper.

   Part 1 — bechamel microbenchmarks: one Test.make per scheme per
   table/figure family, measuring the single-threaded operation kernels
   whose costs the paper's plots are built from (per-node protection
   overhead for Table 2; the read kernels of Figures 5/14/21; the update
   kernels of Figures 7-13; the long-read kernel of Figures 1/6/22).

   Part 2 — the figure harness (quick profile): Tables 1-2 and Figures 1,
   5, 6, 7 end to end, with CSVs under results/.

   Part 3 — ablations of the design parameters called out in DESIGN.md §5:
   max_steps (HP-RCU), backup_period and force_threshold (HP-BRCU), the
   retirement batch (NBR vs NBR-Large axis), double buffering on/off, and
   robustness against injected stalls (Table 2's first row).

   Run:  dune exec bench/main.exe            (everything, ~10-15 min)
         dune exec bench/main.exe -- micro   (just part 1), figures, ablations *)

open Bechamel
open Toolkit
module W = Hpbrcu_workload
module Alloc = Hpbrcu_alloc.Alloc
module Rng = Hpbrcu_runtime.Rng
module Sched = Hpbrcu_runtime.Sched
module Config = Hpbrcu_core.Config
module Stats = Hpbrcu_runtime.Stats
module Schemes = Hpbrcu_schemes.Schemes
module SI = Hpbrcu_core.Smr_intf
module Ds = Hpbrcu_ds

(* ------------------------------------------------------------------ *)
(* Part 1: bechamel microbenchmarks                                    *)
(* ------------------------------------------------------------------ *)

(* Build per-scheme closures for each operation kernel.  Fixtures are
   created eagerly (prefilled structures + a session on this thread). *)

module Kernels (S : SI.S) () = struct
  (* The list the scheme runs: HMList for HP, as in the paper. *)
  module B = (val W.Matrix.list_for S.caps)
  module L = B (S)
  module H = Ds.Hashmap.Make_gen (B) (S)
  module SL = Ds.Skiplist.Make (S)
  module T = Ds.Nmtree.Make (S)

  let prefill_list insert range =
    let rng = Rng.create ~seed:77 in
    let n = ref 0 in
    while !n < range / 2 do
      if insert (Rng.int rng range) then incr n
    done

  (* One get over a prefilled sorted list of [range] keys. *)
  let list_get ~range ~seed () =
    let rng = Rng.create ~seed in
    let t = L.create () in
    let s = L.session t in
    prefill_list (fun k -> L.insert t s k 0) range;
    fun () -> ignore (L.get t s (Rng.int rng range) : bool)

  (* Read kernel on a 1K sorted list (Figure 5a / Table 2 per-node cost). *)
  let list_read = list_get ~range:1024 ~seed:3

  (* Long-read kernel (Figures 1/6/22): one get over a 8K list. *)
  let long_read = list_get ~range:8192 ~seed:4

  (* Update kernel on the HashMap (Figures 5b/7b): insert+remove pair. *)
  let hashmap_update () =
    let range = 16384 in
    let rng = Rng.create ~seed:5 in
    let t = H.create_sized (range / 4) in
    let s = H.session t in
    prefill_list (fun k -> H.insert t s k 0) range;
    fun () ->
      let k = Rng.int rng range in
      if Rng.bool rng then ignore (H.insert t s k 0 : bool)
      else ignore (H.remove t s k : bool)

  (* Mixed kernel on the SkipList (Figure 7d). *)
  let skiplist_mix () =
    let range = 4096 in
    let rng = Rng.create ~seed:6 in
    let t = SL.create () in
    let s = SL.session t in
    prefill_list (fun k -> SL.insert t s k 0) range;
    fun () ->
      let k = Rng.int rng range in
      match Rng.int rng 4 with
      | 0 -> ignore (SL.insert t s k 0 : bool)
      | 1 -> ignore (SL.remove t s k : bool)
      | _ -> ignore (SL.get t s k : bool)

  (* Mixed kernel on the NMTree (Figure 7c); skipped for HP (Table 1). *)
  let nmtree_mix () =
    let range = 4096 in
    let rng = Rng.create ~seed:7 in
    let t = T.create () in
    let s = T.session t in
    prefill_list (fun k -> T.insert t s k 0) range;
    fun () ->
      let k = Rng.int rng range in
      match Rng.int rng 4 with
      | 0 -> ignore (T.insert t s k 0 : bool)
      | 1 -> ignore (T.remove t s k : bool)
      | _ -> ignore (T.get t s k : bool)

  (* Primitive kernels (Table 2 rows). *)
  let prim_crit () =
    let h = S.register () in
    fun () -> S.crit h (fun () -> ())

  let prim_protect () =
    let h = S.register () in
    let sh = S.new_shield h in
    let b = Alloc.block () in
    fun () -> S.protect sh (Some b)

  let prim_retire_cycle () =
    let h = S.register () in
    fun () ->
      let b = Alloc.block () in
      S.retire h b
end

let micro_schemes =
  [ "NR"; "RCU"; "HP"; "HP++"; "PEBR"; "NBR"; "VBR"; "HP-RCU"; "HP-BRCU" ]

(* One domain per scheme, alive for the whole run: bechamel builds every
   fixture before it measures any. *)
let rec with_micro_domains acc names k =
  match names with
  | [] -> k (List.rev acc)
  | name :: rest ->
      Schemes.with_domain (Schemes.find name) (fun (module D) ->
          with_micro_domains ((name, (module D.S : SI.S)) :: acc) rest k)

module type KERNELS = sig
  val list_read : unit -> unit -> unit
  val long_read : unit -> unit -> unit
  val hashmap_update : unit -> unit -> unit
  val skiplist_mix : unit -> unit -> unit
  val nmtree_mix : unit -> unit -> unit
  val prim_crit : unit -> unit -> unit
  val prim_protect : unit -> unit -> unit
  val prim_retire_cycle : unit -> unit -> unit
end

let group schemes name pick =
  let tests =
    List.filter_map
      (fun (sname, s) ->
        let module S = (val s : SI.S) in
        let module K = Kernels (S) () in
        match pick (module K : KERNELS) sname with
        | Some mk -> Some (Test.make ~name:sname (Staged.stage (mk ())))
        | None -> None)
      schemes
  in
  Test.make_grouped ~name tests

let run_micro () =
  Alloc.set_strict false;
  with_micro_domains [] micro_schemes @@ fun schemes ->
  let group = group schemes in
  let groups =
    [
      (* One grouped Test per table/figure family. *)
      group "fig5a_list_read" (fun (module K) name ->
          if name = "NBR" then None (* NBR cannot run the HHS read path alone fairly *)
          else Some K.list_read);
      group "fig1_long_read" (fun (module K) _ -> Some K.long_read);
      group "fig7b_hashmap_update" (fun (module K) name ->
          if name = "HP" then None else Some K.hashmap_update);
      group "fig7d_skiplist_mix" (fun (module K) name ->
          if name = "NBR" then None else Some K.skiplist_mix);
      group "fig7c_nmtree_mix" (fun (module K) name ->
          if name = "HP" then None else Some K.nmtree_mix);
      group "table2_crit" (fun (module K) _ -> Some K.prim_crit);
      group "table2_protect" (fun (module K) _ -> Some K.prim_protect);
      group "table2_retire" (fun (module K) _ -> Some K.prim_retire_cycle);
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.2) ~kde:None () in
  let instance = Instance.monotonic_clock in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  List.iter
    (fun g ->
      Fmt.pr "@.== microbench: %s (ns/op) ==@.%!" (Test.name g);
      let raw = Benchmark.all cfg [ instance ] g in
      let res = Analyze.all ols instance raw in
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) res [] in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> Fmt.pr "  %-28s %10.1f@." name est
          | _ -> Fmt.pr "  %-28s %10s@." name "?")
        (List.sort compare rows))
    groups

(* ------------------------------------------------------------------ *)
(* Part 3: ablations                                                   *)
(* ------------------------------------------------------------------ *)

let longrun_cfg ?(mode = W.Spec.Fibers 7) ?(seed = 42) range =
  W.Longrun.config ~key_range:range ~readers:4 ~writers:4 ~duration:0.25 ~mode
    ~seed ()

(* One long-running-read cell in a fresh domain. *)
let longrun_with entry cfg =
  Schemes.with_domain entry (fun d -> W.Longrun.run_in d cfg)

let impl name = fst (Schemes.find name)

let ablation_max_steps () =
  Fmt.pr "@.== ablation: HP-RCU max_steps (range 4096) ==@.";
  Fmt.pr "  %-10s %12s %8s@." "max_steps" "reads Mop/s" "peak";
  List.iter
    (fun ms ->
      let o =
        longrun_with
          (impl "HP-RCU", { Schemes.small with Config.max_steps = ms })
          (longrun_cfg 4096)
      in
      Fmt.pr "  %-10d %12.4f %8d@." ms o.W.Longrun.reader_tput
        o.W.Longrun.peak_unreclaimed)
    [ 4; 16; 64; 256; 4096 ]

let ablation_backup_period () =
  Fmt.pr "@.== ablation: HP-BRCU backup_period (range 4096) ==@.";
  Fmt.pr "  %-10s %12s %8s %10s@." "period" "reads Mop/s" "peak" "rollbacks";
  List.iter
    (fun bp ->
      let o =
        longrun_with
          (impl "HP-BRCU", { Schemes.small with Config.backup_period = bp })
          (longrun_cfg 4096)
      in
      Fmt.pr "  %-10d %12.4f %8d %10d@." bp o.W.Longrun.reader_tput
        o.W.Longrun.peak_unreclaimed o.W.Longrun.scheme.Stats.rollbacks)
    [ 4; 16; 64; 256; 4096 ]

let ablation_force_threshold () =
  Fmt.pr "@.== ablation: HP-BRCU force_threshold (range 4096) ==@.";
  Fmt.pr "  %-10s %12s %8s %10s@." "threshold" "reads Mop/s" "peak" "signals";
  List.iter
    (fun ft ->
      let o =
        longrun_with
          (impl "HP-BRCU", { Schemes.small with Config.force_threshold = ft })
          (longrun_cfg 4096)
      in
      Fmt.pr "  %-10d %12.4f %8d %10d@." ft o.W.Longrun.reader_tput
        o.W.Longrun.peak_unreclaimed o.W.Longrun.scheme.Stats.signals)
    [ 1; 2; 8; 32; 1024 ]

let ablation_nbr_batch () =
  Fmt.pr "@.== ablation: NBR batch (the NBR vs NBR-Large axis, range 2048) ==@.";
  Fmt.pr "  %-10s %12s %8s %10s@." "batch" "reads Mop/s" "peak" "signals";
  List.iter
    (fun b ->
      let o =
        longrun_with
          (impl "NBR", { Schemes.small with Config.batch = b })
          (longrun_cfg 2048)
      in
      Fmt.pr "  %-10d %12.4f %8d %10d@." b o.W.Longrun.reader_tput
        o.W.Longrun.peak_unreclaimed o.W.Longrun.scheme.Stats.signals)
    [ 32; 128; 1024; 8192 ]

let ablation_double_buffering () =
  Fmt.pr "@.== ablation: HP-BRCU double buffering (range 2048, aggressive signals) ==@.";
  Fmt.pr "  %-10s %12s %8s %12s@." "buffers" "reads Mop/s" "peak" "uaf-detected";
  (* Maximum signal pressure (signal on every flush, tiny batches, frequent
     checkpoints) plus injected stalls, so that a neutralization lands
     inside a checkpoint — after a stall — often enough to tear a
     single-buffered protector within the measurement window. *)
  List.iter
    (fun db ->
      let entry =
        ( impl "HP-BRCU",
          {
            Schemes.small with
            Config.double_buffering = db;
            force_threshold = 1;
            max_local_tasks = 4;
            backup_period = 4;
          } )
      in
      Sched.set_stall_inject ~period:500 ~ticks:50000;
      let o = longrun_with entry (longrun_cfg 2048) in
      Sched.set_stall_inject ~period:0 ~ticks:0;
      Fmt.pr "  %-10s %12.4f %8d %12d@."
        (if db then "double" else "single")
        o.W.Longrun.reader_tput o.W.Longrun.peak_unreclaimed o.W.Longrun.uaf)
    [ true; false ]

(* Robustness against stalled readers (Table 2 row 1): inject virtual-time
   stalls inside reader critical sections and watch who keeps the peak
   bounded.  HP-RCU (no signals) lets a stalled reader block reclamation;
   HP-BRCU neutralizes it. *)
let ablation_stalls () =
  Fmt.pr "@.== extension: stalled readers (stall injected mid-operation) ==@.";
  Fmt.pr "  %-10s %12s %8s@." "scheme" "reads Mop/s" "peak";
  let run name =
    Sched.set_stall_inject ~period:2000 ~ticks:20000;
    let o =
      longrun_with
        (Schemes.find ~tuning:`Small name)
        (longrun_cfg ~mode:(W.Spec.Fibers 13) ~seed:21 2048)
    in
    Sched.set_stall_inject ~period:0 ~ticks:0;
    Fmt.pr "  %-10s %12.4f %8d@." name o.W.Longrun.reader_tput
      o.W.Longrun.peak_unreclaimed
  in
  List.iter run [ "RCU"; "HP-RCU"; "HP-BRCU"; "HP" ]

let run_ablations () =
  ablation_max_steps ();
  ablation_backup_period ();
  ablation_force_threshold ();
  ablation_nbr_batch ();
  ablation_double_buffering ();
  ablation_stalls ()

(* ------------------------------------------------------------------ *)
(* Part 2 driver + main                                                *)
(* ------------------------------------------------------------------ *)

let run_figures () =
  let p = W.Figures.quick in
  W.Figures.table1 ();
  W.Figures.table2 ();
  W.Figures.fig1 p;
  W.Figures.fig5 p;
  W.Figures.fig6 p;
  W.Figures.fig7 p

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match what with
  | "micro" -> run_micro ()
  | "figures" -> run_figures ()
  | "ablations" -> run_ablations ()
  | _ ->
      run_micro ();
      run_figures ();
      run_ablations ());
  Fmt.pr "@.bench done.@."
