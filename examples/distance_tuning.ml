(* Prefetch distance tuning (paper §3.2.3).

   ASaP leaves the lookahead distance as a user/profile-tunable parameter:
   too small and prefetches arrive late; too large and lines are evicted
   before use (cache pollution) and the bounded lookahead wastes its
   coverage. This example sweeps the distance on a memory-bound matrix and
   prints the resulting curve together with prefetch-usefulness counters,
   showing the plateau around the paper's chosen 45. *)

module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Generate = Asap_workloads.Generate

let () =
  let coo =
    Generate.power_law ~seed:33 ~rows:150_000 ~cols:150_000 ~avg_deg:8
      ~alpha:1.9 ()
  in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let enc = Encoding.csr () in
  let spmv variant =
    Driver.run (Driver.Cfg.make ~machine ~variant ()) (Driver.Spmv enc) coo
  in
  let base = spmv Pipeline.Baseline in
  Printf.printf "baseline: %.0f nnz/ms at %.1f L2 MPKI\n\n"
    (Driver.throughput base) (Driver.mpki base);
  Printf.printf "%-10s %10s %12s %12s %12s\n" "distance" "speedup" "sw-pf"
    "useful" "dropped";
  List.iter
    (fun d ->
      let r =
        spmv (Pipeline.Asap { Asap.default with Asap.distance = d })
      in
      assert (Driver.check_spmv coo r < 1e-9);
      let rp = r.Driver.report in
      Printf.printf "%-10d %9.2fx %12d %12d %12d\n%!" d
        (Driver.throughput r /. Driver.throughput base)
        (Exec.Report.sw_issued rp) (Exec.Report.sw_useful rp)
        (Exec.Report.sw_dropped rp))
    [ 1; 2; 4; 8; 16; 32; 45; 64; 96; 128; 256 ]
