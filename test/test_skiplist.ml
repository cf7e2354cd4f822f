(* SkipList: all schemes (HP runs the helping search and loses
   wait-freedom, per Table 1's ▲). *)

let () =
  let mk (module S : Hpbrcu_core.Smr_intf.S) =
    (module Hpbrcu_ds.Skiplist.Make (S) : Hpbrcu_ds.Ds_intf.MAP)
  in
  Alcotest.run "skiplist"
    [ ("all", Test_util.standard_cases ~make:mk Test_util.all_schemes);
      ("hop-shields", Test_util.hop_shield_cases ~make:mk Hpbrcu_core.Caps.SkipList);
      (* No step reads a level's first link: the top one is read by the
         walker's [init], each lower one as the level above completes. *)
      ( "mediations",
        Test_util.mediation_cases ~make:mk ~entry_reads:Hpbrcu_ds.Skiplist.max_level
          [ "NR"; "RCU"; "HP"; "HP++"; "HP-BRCU" ] ) ]
