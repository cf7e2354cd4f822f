(* HashMap: HHSList buckets for optimistic schemes, HMList buckets for HP
   (as in the paper's benchmark suite). *)

module Alloc = Hpbrcu_alloc.Alloc
module Block = Hpbrcu_alloc.Block
module Link = Hpbrcu_core.Link
module Rng = Hpbrcu_runtime.Rng

(* VBR recycles a freed node through its list's pool, and each bucket list
   keeps its own pool, so a node freed from bucket i must only ever come
   back in bucket i.  This wrapper records, per block id, the bucket whose
   operation first reached it ([bucket] is set by the test before each
   operation), and counts blocks reached again in another bucket, and
   blocks reached again after their retirement (reuses). *)
module Track (S : Hpbrcu_core.Smr_intf.S) = struct
  include S

  let bucket = ref (-1)
  let home : (int, int) Hashtbl.t = Hashtbl.create 256
  let freed : (int, unit) Hashtbl.t = Hashtbl.create 64
  let strays = ref 0
  let reuses = ref 0

  let note blk =
    let id = Block.id blk in
    if id >= 0 then begin
      (match Hashtbl.find_opt home id with
      | Some b -> if b <> !bucket then incr strays
      | None -> Hashtbl.add home id !bucket);
      if Hashtbl.mem freed id then begin
        Hashtbl.remove freed id;
        incr reuses
      end
    end

  let read h ~src ~hdr cell =
    note src;
    let l = S.read h ~src ~hdr cell in
    (match l with Link.Ptr { target; _ } -> note (hdr target) | Link.Null _ -> ());
    l

  let deref h blk =
    note blk;
    S.deref h blk

  let retire h ?patch ?claimed blk =
    S.retire h ?patch ?claimed blk;
    Hashtbl.replace freed (Block.id blk) ()
end

let test_vbr_reuse_stays_in_bucket () =
  let module Schemes = Hpbrcu_schemes.Schemes in
  (* A short era (4 retirements) lets the pools hand nodes back often. *)
  let config = { Hpbrcu_core.Config.default with batch = 4 } in
  Schemes.with_domain (fst (Schemes.find "VBR"), config) @@ fun (module D) ->
  Alloc.reset ();
  Alloc.set_strict true;
  let module T = Track (D) in
  let module M = Hpbrcu_ds.Hashmap.Make_gen (Hpbrcu_ds.Harris_list.Make_hhs) (T) in
  let t = M.create_sized 4 in
  let index k =
    let b = M.bucket t k in
    let rec find i = if t.M.buckets.(i) == b then i else find (i + 1) in
    find 0
  in
  let s = M.session t in
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 4000 do
    let k = Rng.int rng 64 in
    T.bucket := index k;
    ignore
      (if Rng.bool rng then M.insert t s k k else M.remove t s k : bool)
  done;
  Array.iteri
    (fun i b ->
      T.bucket := i;
      M.L.cleanup b s)
    t.M.buckets;
  M.close_session s;
  Alcotest.(check bool) "nodes were reused" true (!T.reuses > 100);
  Alcotest.(check int) "blocks reached outside their home bucket" 0 !T.strays;
  let clean, msg = Alloc.census () in
  Alcotest.(check bool) ("census: " ^ msg) true clean;
  Alcotest.(check int) "nothing unreclaimed" 0 (Alloc.stats ()).Alloc.unreclaimed

(* An HHSList-bucket HashMap on two real domains, with a compaction
   between two phases: the compaction moves every list node, each of
   which is its own [next] cell, while other nodes hold links to it.
   Workers own disjoint keys (worker [w] the keys [k] with [k mod 2 = w]),
   so each checks every answer against its own model. *)
let test_compaction_on_domains scheme () =
  let module Schemes = Hpbrcu_schemes.Schemes in
  let module Sched = Hpbrcu_runtime.Sched in
  Schemes.with_domain (Schemes.find scheme) @@ fun (module D) ->
  Alloc.reset ();
  Alloc.set_strict true;
  let module M = Hpbrcu_ds.Hashmap.Make_gen (Hpbrcu_ds.Harris_list.Make_hhs) (D) in
  let t = M.create_sized 64 in
  let keys = 512 in
  let present = Array.make keys false in
  let wrong = Array.make 2 0 in
  let phase seed =
    Sched.run Sched.Domains ~nthreads:2 (fun w ->
        let s = M.session t in
        let rng = Rng.create ~seed:(seed + w) in
        for _ = 1 to 3000 do
          let k = (2 * Rng.int rng (keys / 2)) + w in
          let got, want =
            match Rng.int rng 3 with
            | 0 -> (M.get t s k, present.(k))
            | 1 ->
                let want = not present.(k) in
                present.(k) <- true;
                (M.insert t s k k, want)
            | _ ->
                let want = present.(k) in
                present.(k) <- false;
                (M.remove t s k, want)
          in
          if got <> want then wrong.(w) <- wrong.(w) + 1
        done;
        M.close_session s)
  in
  phase 11;
  Gc.compact ();
  phase 21;
  Alcotest.(check (array int)) "wrong answers per worker" [| 0; 0 |] wrong;
  let s = M.session t in
  Array.iteri
    (fun k want -> Alcotest.(check bool) (Printf.sprintf "final get %d" k) want (M.get t s k))
    present;
  M.cleanup t s;
  M.close_session s;
  let clean, msg = Alloc.census () in
  Alcotest.(check bool) ("census: " ^ msg) true clean;
  Alcotest.(check bool) "blocks were retired" true ((Alloc.stats ()).Alloc.retired > 0);
  D.teardown ();
  Alcotest.(check int) "retired blocks surviving teardown" 0
    (Alloc.current_unreclaimed ())

let () =
  let mk_hhs (module S : Hpbrcu_core.Smr_intf.S) =
    (module Hpbrcu_ds.Hashmap.Make (S) : Hpbrcu_ds.Ds_intf.MAP)
  in
  let mk_hm (module S : Hpbrcu_core.Smr_intf.S) =
    (module Hpbrcu_ds.Hashmap.Make_hm (S) : Hpbrcu_ds.Ds_intf.MAP)
  in
  Alcotest.run "hashmap"
    [
      ("hhs-buckets", Test_util.standard_cases ~make:mk_hhs Test_util.optimistic_schemes);
      ( "hm-buckets",
        Test_util.standard_cases ~make:mk_hm
          [ "HP"; "HE"; "IBR" ] );
      ( "vbr",
        [
          Alcotest.test_case "reuse-stays-in-bucket" `Quick
            test_vbr_reuse_stays_in_bucket;
        ] );
      ( "compaction-on-domains",
        List.map
          (fun scheme ->
            Alcotest.test_case scheme `Quick (test_compaction_on_domains scheme))
          [ "HP-BRCU"; "RCU" ] );
    ]
