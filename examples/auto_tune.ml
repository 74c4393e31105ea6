(* Profile-guided prefetch tuning (§3.2.3 + the APT-GET/RPG^2 direction
   of §6).

   ASaP leaves the prefetch distance tunable. This example profiles SpMV
   on a leading slice of rows for several inputs:
   - a cache-resident banded matrix — prefetching is rolled back entirely;
   - a memory-bound power-law graph — the best candidate distance wins;
   then runs the full matrix with the chosen configuration and compares
   against always-on defaults. *)

module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Tuning = Asap_core.Tuning
module Asap = Asap_prefetch.Asap
module Generate = Asap_workloads.Generate

let () =
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let enc = Encoding.csr () in
  let inputs =
    [ ("banded (cache-resident)", Generate.banded ~seed:61 ~n:40_000 ~band:2 ());
      ("power-law (memory-bound)",
       Generate.power_law ~seed:62 ~rows:150_000 ~cols:150_000 ~avg_deg:6
         ~alpha:1.9 ()) ]
  in
  List.iter
    (fun (label, coo) ->
      Printf.printf "=== %s ===\n\n" label;
      let d = Tuning.tune machine enc coo in
      print_string (Tuning.describe d);
      let run variant =
        Driver.throughput
          (Driver.run (Driver.Cfg.make ~machine ~variant ()) (Driver.Spmv enc)
             coo)
      in
      let tuned = run d.Tuning.chosen in
      let always = run (Pipeline.Asap Asap.default) in
      let base = run Pipeline.Baseline in
      Printf.printf
        "\nfull run: baseline %.0f | always-on asap(d=45) %.2fx | tuned %.2fx\n\n%!"
        base (always /. base) (tuned /. base))
    inputs
