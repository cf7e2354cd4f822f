(* Natarajan-Mittal external BST: optimistic schemes only (HP excluded,
   Table 1). *)

let () =
  let mk (module S : Hpbrcu_core.Smr_intf.S) =
    (module Hpbrcu_ds.Nmtree.Make (S) : Hpbrcu_ds.Ds_intf.MAP)
  in
  Alcotest.run "nmtree"
    [ ("all", Test_util.standard_cases ~make:mk Test_util.optimistic_schemes);
      ("hop-shields", Test_util.hop_shield_cases ~make:mk Hpbrcu_core.Caps.NMTree) ]
