(* Property tests for the allocation-free reclamation containers
   (DESIGN.md §9): the array-backed [Retired] batch against a plain-list
   model over random push / reclaim_where / drain / transfer
   interleavings, and [Idset]'s radix sort + binary search against the
   Stdlib sort / linear membership they replace. *)

module Q = QCheck
module Alloc = Hpbrcu_alloc.Alloc
module Block = Hpbrcu_alloc.Block
module Retired = Hpbrcu_core.Retired
module Idset = Hpbrcu_core.Idset

(* ---------------- Retired vs list model ---------------- *)

type op =
  | Push of int * int  (* stamp (the block's retire era), patch count *)
  | Reclaim_le of int  (* reclaim blocks with stamp <= k *)
  | Reclaim_all
  | Drain  (* drain to an array and push the blocks back, unpatched *)
  | Transfer  (* move everything into a second batch and back *)

let op_gen =
  Q.Gen.(
    frequency
      [
        (6, map2 (fun s p -> Push (s, p)) (int_bound 7) (int_bound 2));
        (2, map (fun k -> Reclaim_le k) (int_bound 7));
        (1, return Reclaim_all);
        (1, return Drain);
        (1, return Transfer);
      ])

let pp_op = function
  | Push (s, p) -> Printf.sprintf "P(%d,%d)" s p
  | Reclaim_le k -> Printf.sprintf "R<=%d" k
  | Reclaim_all -> "R*"
  | Drain -> "D"
  | Transfer -> "T"

let ops_arb =
  Q.make
    ~print:(fun ops -> String.concat ";" (List.map pp_op ops))
    Q.Gen.(list_size (int_range 0 200) op_gen)

(* Model entry: block and patch-list length; the stamp is the block's own
   retire era. *)
type mentry = { mblk : Block.t; mpatch : int }

(* The batch must mirror the model exactly: same length, same blocks in
   the same (FIFO) order with their patch lists, and npatches equal to the
   summed patch lengths. *)
let check_mirror t model =
  Retired.length t = List.length model
  && Retired.npatches t = List.fold_left (fun a m -> a + m.mpatch) 0 model
  && List.for_all2
       (fun m i ->
         Retired.get t i == m.mblk
         && List.length (Retired.patches t i) = m.mpatch)
       model
       (List.init (List.length model) Fun.id)

let stamp m = Block.retire_era m.mblk

let retired_agrees ops =
  Alloc.reset ();
  Alloc.set_strict true;
  let t = Retired.create () in
  let aux = Retired.create () in
  let model = ref [] in
  let ok = ref true in
  let expect b = if not b then ok := false in
  (* Every removed block was reclaimed (a second reclaim would count as a
     double reclaim). *)
  let reclaimed_set ms = List.iter (fun m -> expect (Block.is_reclaimed m.mblk)) ms in
  List.iter
    (fun op ->
      (match op with
      | Push (stamp, npatch) ->
          let b = Alloc.block () in
          Alloc.retire b;
          Block.mark_retire_era b ~era:stamp;
          let patches = List.init npatch (fun _ -> Alloc.block ()) in
          Retired.push_patched t patches b;
          model := !model @ [ { mblk = b; mpatch = npatch } ]
      | Reclaim_le k ->
          let gone, keep = List.partition (fun m -> stamp m <= k) !model in
          let freed =
            Retired.reclaim_where t (fun b -> Block.retire_era b <= k)
          in
          expect (freed = List.length gone);
          reclaimed_set gone;
          model := keep
      | Reclaim_all ->
          let gone = !model in
          let freed = Retired.reclaim_where t (fun _ -> true) in
          expect (freed = List.length gone);
          reclaimed_set gone;
          model := []
      | Drain ->
          let bs = Retired.drain_array t in
          expect (Retired.length t = 0 && Retired.npatches t = 0);
          expect
            (Array.length bs = List.length !model
            && List.for_all2 (fun b m -> b == m.mblk) (Array.to_list bs) !model);
          (* the drained blocks come back without their patch lists *)
          Array.iter (Retired.push t) bs;
          model := List.map (fun m -> { m with mpatch = 0 }) !model
      | Transfer ->
          Retired.transfer t ~into:aux;
          expect (Retired.length t = 0 && Retired.npatches t = 0);
          Retired.transfer aux ~into:t;
          expect (Retired.length aux = 0));
      expect (check_mirror t !model))
    ops;
  (* Drain down: everything left must reclaim cleanly exactly once. *)
  let gone = !model in
  expect (Retired.reclaim_where t (fun _ -> true) = List.length gone);
  reclaimed_set gone;
  expect (Retired.length t = 0 && Retired.npatches t = 0);
  !ok && Alloc.uaf_count () = 0
    && (Alloc.stats ()).Alloc.double_reclaims = 0

let retired_prop =
  Q.Test.make ~count:200 ~name:"Retired-array+model" ops_arb retired_agrees

(* ---------------- Idset vs Stdlib sort ---------------- *)

let ids_arb =
  Q.make
    ~print:Q.Print.(list int)
    Q.Gen.(list_size (int_range 0 300) (int_bound 100_000))

let idset_sort_mem =
  Q.Test.make ~count:300 ~name:"Idset-radix-sort+mem" ids_arb (fun ids ->
      let s = Idset.create () in
      List.iter (Idset.add s) ids;
      Idset.sort s;
      let sorted = List.sort compare ids in
      let ok = ref (Idset.length s = List.length ids) in
      List.iteri
        (fun i v ->
          (* probe order via mem of each sorted element and spot-check
             non-members around it *)
          if not (Idset.mem s v) then ok := false;
          if i = 0 && v > 0 && not (List.mem (v - 1) ids) then
            if Idset.mem s (v - 1) then ok := false)
        sorted;
      if Idset.mem s 100_001 then ok := false;
      !ok)

let idset_mem_range =
  Q.Test.make ~count:300 ~name:"Idset-mem-range"
    Q.(
      pair ids_arb
        (pair (Q.make Q.Gen.(int_bound 100_000)) (Q.make Q.Gen.(int_bound 100_000))))
    (fun (ids, (a, b)) ->
      let lo = min a b and hi = max a b in
      let s = Idset.create () in
      List.iter (Idset.add s) ids;
      Idset.sort s;
      Idset.mem_range s lo hi = List.exists (fun v -> lo <= v && v <= hi) ids)

(* Reuse across clear: a second fill of the same scratch set must behave
   like a fresh one (stale elements must not leak through). *)
let idset_reuse =
  Q.Test.make ~count:200 ~name:"Idset-clear-reuse" (Q.pair ids_arb ids_arb)
    (fun (first, second) ->
      let s = Idset.create () in
      List.iter (Idset.add s) first;
      Idset.sort s;
      Idset.clear s;
      List.iter (Idset.add s) second;
      Idset.sort s;
      List.for_all (Idset.mem s) second
      && Idset.length s = List.length second
      && List.for_all
           (fun v -> List.mem v second || not (Idset.mem s v))
           first)

let () =
  let to_alco = List.map (QCheck_alcotest.to_alcotest ~long:false) in
  Alcotest.run "retired"
    [
      ("retired-vs-model", to_alco [ retired_prop ]);
      ("idset", to_alco [ idset_sort_mem; idset_mem_range; idset_reuse ]);
    ]
