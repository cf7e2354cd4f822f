(* OLAP-style long scans vs. reclamation pressure (the paper's §1 and
   Figure 1 motivation).

   Run with:  dune exec examples/olap_scan.exe

   Analytic readers scan a big sorted list while writers churn its head.
   Under NBR every neutralization aborts the scan back to the entry point,
   so past a certain scan length readers starve; under HP-BRCU the scan is
   rolled back only to its last checkpoint and keeps making progress, while
   memory stays bounded (compare RCU's peak).  This is Figure 1 condensed
   into one runnable story. *)

module Alloc = Hpbrcu_alloc.Alloc
module W = Hpbrcu_workload

let () =
  let range = 4096 in
  Fmt.pr "Scanning a %d-key list while writers churn its head...@.@." range;
  let cfg =
    W.Longrun.config ~key_range:range ~readers:2 ~writers:2 ~duration:0.3
      ~mode:(W.Spec.Fibers 7) ~seed:5 ()
  in
  Fmt.pr "%-10s %14s %14s %8s@." "scheme" "reads (Mop/s)" "writes (Mop/s)" "peak";
  List.iter
    (fun scheme ->
      let o = W.Longrun.run ~scheme cfg in
      Fmt.pr "%-10s %14.3f %14.3f %8d@." scheme o.W.Longrun.reader_tput
        o.W.Longrun.writer_tput o.W.Longrun.peak_unreclaimed)
    [ "NR"; "RCU"; "NBR"; "HP"; "HP-RCU"; "HP-BRCU" ];
  Fmt.pr
    "@.Reading the table: NBR's scans restart from scratch on every@.\
     neutralization (low read throughput); RCU reads fast but its peak@.\
     grows with scan length; HP pays per-node protection; HP-BRCU reads@.\
     nearly at RCU speed with an HP-like bounded peak.@."
