(* Engine microbenchmark: host wall-clock and simulated-instruction
   throughput of the two execution engines on identical cells.

   The matrix is generated and packed once; each engine then runs the same
   kernel/variant cells on fresh hierarchies, so the comparison isolates
   engine cost from workload setup. Results go to stdout as JSON (the
   format tracked in BENCH_engine.json by tools/bench_smoke.sh).

   Usage: bench_engine.exe [rows] [avg_deg] [reps] *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Generate = Asap_workloads.Generate

let () =
  let arg i default =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default
  in
  let rows = arg 1 100_000 in
  let deg = arg 2 8 in
  let reps = arg 3 3 in
  let coo =
    Generate.power_law ~seed:1 ~rows ~cols:rows ~avg_deg:deg ~alpha:2.0 ()
  in
  let enc = Encoding.csr () in
  let st = Asap_tensor.Storage.pack enc coo in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let variants =
    [ ("baseline", Pipeline.Baseline);
      ("asap", Pipeline.Asap Asap.default);
      ("aj", Pipeline.Ainsworth_jones Aj.default) ]
  in
  let measure engine =
    let run variant =
      Driver.run (Driver.Cfg.make ~engine ~st ~machine ~variant ())
        (Driver.Spmv enc) coo
    in
    (* Warm up allocators and fault in the matrix once, untimed. The
       matrix is packed once above and shared via [~st], so the timed
       region is engine cost, not setup. *)
    ignore (run Pipeline.Baseline);
    let instrs = ref 0 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      List.iter
        (fun (_, v) ->
          let r = run v in
          instrs := !instrs + r.Driver.report.Exec.rp_instructions)
        variants
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (dt, !instrs)
  in
  let ti, ii = measure `Interp in
  let tb, ib = measure `Bytecode in
  assert (ii = ib);
  (* Seed-commit interpreter Minstr/s on this microbench (default
     arguments, same host class), for cross-commit ratios: the per-access
     hierarchy optimisations that rode along with the bytecode engine sped
     up both engines, so same-run ratios understate the distance
     travelled from the seed. *)
  let seed_interp = 4.84 in
  let mb = float_of_int ib /. tb /. 1e6 in
  Printf.printf
    "{\n\
    \  \"grid\": \"spmv csr x {baseline,asap,aj} x %d reps\",\n\
    \  \"matrix\": \"powerlaw rows=%d avg_deg=%d nnz=%d\",\n\
    \  \"simulated_instructions\": %d,\n\
    \  \"interp\": { \"wall_s\": %.3f, \"minstr_per_s\": %.2f },\n\
    \  \"bytecode\": { \"wall_s\": %.3f, \"minstr_per_s\": %.2f },\n\
    \  \"bytecode_vs_interp\": %.2f,\n\
    \  \"seed_interp_minstr_per_s\": %.2f,\n\
    \  \"bytecode_vs_seed_interp\": %.2f\n\
     }\n"
    reps rows deg (Coo.nnz coo) ii ti
    (float_of_int ii /. ti /. 1e6)
    tb mb (ti /. tb) seed_interp (mb /. seed_interp)
