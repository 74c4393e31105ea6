(* Specialization benchmark: ahead-of-time specialized bytecode vs the
   generic engines on the SpMV/SpMM/SDDMM suite (ROADMAP item 3).

   Gates:

   - each gated scenario's specialized run must be >= [min_ratio] x the
     generic bytecode run in virtual cycles (the CSR SpMV row is
     reported ungated: its trip counts are data-dependent, so
     specialization only folds the entry block);
   - specialized outputs must be bit-identical to the generic outputs,
     and the specialized report must be identical across both engines
     (interp / bytecode);
   - steady-state host wall clock of the specialized bytecode must
     improve on generic bytecode (geomean over the suite, warmup/run
     protocol from bench/harness.ml);
   - a warm serve replay must serve specialized artefacts from cache
     ([serve.spec.hit] > 0) with records byte-identical at any --jobs.

   Results go to stdout as JSON (tracked in BENCH_specialize.json by
   tools/specialize_smoke.sh @spec-smoke).

   Usage: specialize.exe [n] [seed] [jobs] [min_ratio; 0 disables]
                         [reps] *)

module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Specialize = Asap_sim.Specialize
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Generate = Asap_workloads.Generate
module Mix = Asap_serve.Mix
module Scheduler = Asap_serve.Scheduler
module Config = Asap_serve.Config
module Slo = Asap_serve.Slo
module Registry = Asap_obs.Registry

type scenario = {
  sc_name : string;
  sc_spec : string;              (* Generate.of_spec matrix *)
  sc_kernel : [ `Spmv | `Spmm | `Sddmm ];
  sc_inner : int;                (* SpMM n / SDDMM kk; 0 where unused *)
  sc_enc : Encoding.t;
  sc_gated : bool;               (* participates in the min_ratio gate *)
}

(* The win comes from constant-trip inner loops (SpMM dense columns,
   SDDMM contraction depth, BSR block loops): full unrolling deletes the
   two per-iteration loop-overhead events and the per-entry exit bubble.
   CSR SpMV has no such loop — its inner trips are data-dependent — so
   it rides along ungated as the honest lower bound. *)
let scenarios =
  [ { sc_name = "spmm_csr_uniform"; sc_spec = "uniform:3000,30000";
      sc_kernel = `Spmm; sc_inner = 8; sc_enc = Encoding.csr ();
      sc_gated = true };
    { sc_name = "spmm_csr_powerlaw"; sc_spec = "powerlaw:3000,8";
      sc_kernel = `Spmm; sc_inner = 8; sc_enc = Encoding.csr ();
      sc_gated = true };
    { sc_name = "sddmm_csr_uniform"; sc_spec = "uniform:3000,30000";
      sc_kernel = `Sddmm; sc_inner = 8; sc_enc = Encoding.csr ();
      sc_gated = true };
    (* Dims divisible by the block sides, so the specializer proves both
       edge clamps away and fully unrolls the bh x bw micro loops. *)
    { sc_name = "spmv_bsr2x3_banded"; sc_spec = "banded:19998,4";
      sc_kernel = `Spmv; sc_inner = 0;
      sc_enc = Encoding.bsr ~bh:2 ~bw:3 (); sc_gated = true };
    (* Reported ungated: random scatter leaves mostly-singleton blocks,
       where the unroll win is partly offset by the tighter load spacing
       running ahead of the hardware prefetcher. *)
    { sc_name = "spmv_bsr2x2_uniform"; sc_spec = "uniform:20000,120000";
      sc_kernel = `Spmv; sc_inner = 0;
      sc_enc = Encoding.bsr ~bh:2 ~bw:2 (); sc_gated = false };
    { sc_name = "spmv_csr_uniform"; sc_spec = "uniform:20000,120000";
      sc_kernel = `Spmv; sc_inner = 0; sc_enc = Encoding.csr ();
      sc_gated = false } ]

let geomean = function
  | [] -> 1.
  | xs ->
    exp (List.fold_left (fun s x -> s +. log x) 0. xs
         /. float_of_int (List.length xs))

let () =
  let argi i default =
    if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else default
  in
  let argf i default =
    if Array.length Sys.argv > i then float_of_string Sys.argv.(i)
    else default
  in
  let n = argi 1 120 in
  let seed = argi 2 11 in
  let jobs = argi 3 4 in
  let min_ratio = argf 4 1.15 in
  let reps = argi 5 12 in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in

  (* --- specialized vs generic, per scenario --------------------------- *)
  let wall_ratios = ref [] in
  let measure sc =
    let coo =
      match Generate.of_spec sc.sc_spec with
      | Ok coo -> coo
      | Error e -> Printf.eprintf "bad spec %s: %s\n" sc.sc_spec e; exit 1
    in
    let variant = Pipeline.Asap Asap_prefetch.Asap.default in
    let cfg ~specialize engine =
      Driver.Cfg.make ~engine ~specialize
        ?n:(if sc.sc_inner > 0 then Some sc.sc_inner else None)
        ~machine ~variant ()
    in
    let kspec =
      match sc.sc_kernel with
      | `Spmv -> Driver.Spmv sc.sc_enc
      | `Spmm -> Driver.Spmm sc.sc_enc
      | `Sddmm -> Driver.Sddmm sc.sc_enc
    in
    let generic = Driver.run (cfg ~specialize:false `Bytecode) kspec coo in
    let specd = Driver.run (cfg ~specialize:true `Bytecode) kspec coo in
    (* Value exactness: bit-identical outputs (same op order). *)
    (match (generic.Driver.out_f, specd.Driver.out_f) with
     | Some g, Some s ->
       if g <> s then fail "%s: specialized output differs" sc.sc_name
     | _ -> fail "%s: missing numeric output" sc.sc_name);
    let err =
      match sc.sc_kernel with
      | `Spmv -> Driver.check_spmv coo specd
      | `Spmm -> Driver.check_spmm coo ~n:sc.sc_inner specd
      | `Sddmm -> Driver.check_sddmm coo ~kk:sc.sc_inner specd
    in
    if err > 1e-9 then
      fail "%s: specialized output off the dense reference by %g" sc.sc_name
        err;
    (* Report exactness: the specialized function must time identically
       on both engines. *)
    let spec_counters e = (Driver.run (cfg ~specialize:true e) kspec coo).Driver.counters in
    if spec_counters `Interp <> specd.Driver.counters then
      fail "%s: specialized interp report differs from bytecode" sc.sc_name;
    let gc = generic.Driver.report.Exec.rp_cycles
    and sc_cycles = specd.Driver.report.Exec.rp_cycles in
    let ratio = float_of_int gc /. float_of_int sc_cycles in
    if sc.sc_gated && min_ratio > 0. && ratio < min_ratio then
      fail "%s: specialized only %.3fx generic virtual cycles (need %.2fx)"
        sc.sc_name ratio min_ratio;
    (* Steady-state host wall clock, warmup/run protocol: prepare both
       forms once, then time repeated re-executions. *)
    let prep specialize =
      Driver.Prep.make (cfg ~specialize `Bytecode) kspec coo
    in
    let pg = prep false and ps = prep true in
    let wall p =
      Harness.measure_wall ~warmup:2 ~reps (fun () ->
          ignore (Driver.Prep.exec p))
    in
    let wg = wall pg and ws = wall ps in
    let wall_ratio = wg /. ws in
    wall_ratios := wall_ratio :: !wall_ratios;
    Printf.sprintf
      "    { \"name\": %S, \"matrix\": %S, \"nnz\": %d, \"gated\": %b,\n\
      \      \"generic_cycles\": %d, \"specialized_cycles\": %d,\n\
      \      \"cycle_speedup\": %.3f, \"wall_speedup\": %.3f,\n\
      \      \"max_err\": %.2e }"
      sc.sc_name sc.sc_spec specd.Driver.nnz sc.sc_gated gc sc_cycles ratio
      wall_ratio err
  in
  let rows = List.map measure scenarios in
  let wall_geomean = geomean !wall_ratios in
  if wall_geomean <= 1.0 then
    fail
      "specialized bytecode shows no wall-clock win (geomean %.3fx <= 1.0)"
      wall_geomean;

  (* --- warm serve replay: specialized artefacts from cache ------------ *)
  let profiles =
    List.map
      (fun p -> { p with Mix.p_specialize = true })
      (Mix.default_profiles ())
  in
  let reqs = Mix.hot_cold ~seed ~n profiles in
  let replay jobs = Scheduler.run Config.(with_jobs jobs default) reqs in
  let lines rp =
    String.concat "\n"
      (Array.to_list
         (Array.map Scheduler.record_to_line rp.Scheduler.rp_records))
  in
  let rp = replay jobs in
  let rp_seq = replay 1 in
  let identical = String.equal (lines rp) (lines rp_seq) in
  let counter name =
    Option.value ~default:0 (Registry.get rp.Scheduler.rp_registry name)
  in
  let spec_hits = counter "serve.spec.hit" in
  let spec_misses = counter "serve.spec.miss" in
  let pack_hits = counter "serve.pack.hit" in
  if not identical then
    fail "replay records differ between --jobs 1 and --jobs %d" jobs;
  if spec_hits <= 0 then
    fail "warm serve replay served no specialized artefacts from cache";
  if spec_misses <= 0 then
    fail "serve replay built no specialized artefacts (flag not threaded?)";

  Printf.printf
    "{\n\
    \  \"engine\": \"bytecode\",\n\
    \  \"min_ratio\": %.2f,\n\
    \  \"scenarios\": [\n%s\n  ],\n\
    \  \"wall_speedup_geomean\": %.3f,\n\
    \  \"serve\": {\n\
    \    \"requests\": %d, \"jobs\": %d,\n\
    \    \"spec_hits\": %d, \"spec_misses\": %d,\n\
    \    \"spec_build_ns\": %d,\n\
    \    \"pack_hits\": %d, \"pack_misses\": %d,\n\
    \    \"records_jobs_identical\": %b\n\
    \  }\n\
     }\n"
    min_ratio
    (String.concat ",\n" rows)
    wall_geomean n jobs spec_hits spec_misses
    (counter "serve.spec.build_ns")
    pack_hits (counter "serve.pack.miss") identical;
  match !failures with
  | [] -> ()
  | fs ->
    List.iter (fun m -> Printf.eprintf "bench/specialize: FAIL — %s\n" m)
      (List.rev fs);
    exit 1
