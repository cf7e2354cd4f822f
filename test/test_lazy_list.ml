(* Lazy list (Heller et al.): the lock-based structure of Table 1 row 1.
   Runs under the coarse-grained and restart-capable schemes; HP/HE/IBR
   are excluded exactly as the paper excludes them (optimistic lookup). *)

let schemes =
  [ "NR"; "RCU"; "HP++"; "PEBR"; "NBR"; "VBR"; "HP-RCU"; "HP-BRCU" ]

let () =
  let mk (module S : Hpbrcu_core.Smr_intf.S) =
    (module Hpbrcu_ds.Lazy_list.Make (S) : Hpbrcu_ds.Ds_intf.MAP)
  in
  Alcotest.run "lazy_list"
    [ ("all", Test_util.standard_cases ~make:mk schemes) ]
