(* HashMap: HHSList buckets for optimistic schemes, HMList buckets for HP
   (as in the paper's benchmark suite). *)

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
    ]
