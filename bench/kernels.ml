(* Kernel-scenario benchmark: the scenario-diversity kernels (SDDMM and
   blocked BSR SpMV) ASaP-vs-baseline in virtual cycles, plus the
   streaming-update serving gates.

   All gates are over *virtual* quantities (deterministic replay
   properties, not host measurements):

   - each scenario's ASaP variant must be value-correct against the dense
     reference and no slower than [min_ratio] x baseline virtual cycles;
   - the streaming-update replay's records must be byte-identical
     between [jobs] = 1 and [jobs] = N with updates in flight;
   - the update stream must actually invalidate cached entries
     ([serve.cache.invalidated] > 0) and no hit may ever serve a
     wrong-version entry ([serve.cache.stale_hit] = 0).

   Results go to stdout as JSON (tracked in BENCH_kernels.json by
   tools/kernel_smoke.sh @kernel-smoke).

   Usage: kernels.exe [--engine interp|bytecode]
                      [n] [seed] [jobs] [min_ratio; 0 disables] [updates] *)

module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
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
  sc_kernel : [ `Spmv | `Sddmm ];
  sc_kk : int;                   (* SDDMM dense contraction width *)
  sc_enc : Encoding.t;
}

(* Unstructured matrices sized past the scaled caches (Fig. 6/7: ASaP
   wins on the memory-bound "Selected" class and only there). SDDMM rows
   stay moderate because its output is a dense d_i x d_j buffer. *)
let scenarios =
  [ { sc_name = "sddmm_csr_uniform"; sc_spec = "uniform:4000,40000";
      sc_kernel = `Sddmm; sc_kk = 16; sc_enc = Encoding.csr () };
    { sc_name = "sddmm_csr_powerlaw"; sc_spec = "powerlaw:4000,6";
      sc_kernel = `Sddmm; sc_kk = 16; sc_enc = Encoding.csr () };
    { sc_name = "spmv_csr_uniform"; sc_spec = "uniform:60000,400000";
      sc_kernel = `Spmv; sc_kk = 0; sc_enc = Encoding.csr () };
    { sc_name = "spmv_bsr2x2_powerlaw"; sc_spec = "powerlaw:100000,6";
      sc_kernel = `Spmv; sc_kk = 0;
      sc_enc = Encoding.bsr ~bh:2 ~bw:2 () } ]

let () =
  let engine = ref Exec.default_engine in
  let rec split acc = function
    | [] -> List.rev acc
    | "--engine" :: v :: rest ->
      (match Exec.engine_of_string v with
       | Some e -> engine := e
       | None ->
         Printf.eprintf "unknown engine %s (%s)\n" v Exec.valid_engines;
         exit 1);
      split acc rest
    | a :: rest -> split (a :: acc) rest
  in
  let pos = Array.of_list (split [] (List.tl (Array.to_list Sys.argv))) in
  let argi i default =
    if Array.length pos > i then int_of_string pos.(i) else default
  in
  let argf i default =
    if Array.length pos > i then float_of_string pos.(i) else default
  in
  let n = argi 0 120 in
  let seed = argi 1 11 in
  let jobs = argi 2 4 in
  let min_ratio = argf 3 1.0 in
  let n_updates = argi 4 8 in
  let engine = !engine in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in

  (* --- ASaP vs baseline virtual cycles per scenario ------------------- *)
  let measure sc =
    let coo =
      match Generate.of_spec sc.sc_spec with
      | Ok coo -> coo
      | Error e -> Printf.eprintf "bad spec %s: %s\n" sc.sc_spec e; exit 1
    in
    let kk = sc.sc_kk in
    let run variant =
      let cfg = Driver.Cfg.make ~engine ~machine ~variant in
      match sc.sc_kernel with
      | `Spmv -> Driver.run (cfg ()) (Driver.Spmv sc.sc_enc) coo
      | `Sddmm -> Driver.run (cfg ~n:kk ()) (Driver.Sddmm sc.sc_enc) coo
    in
    let base = run Pipeline.Baseline in
    let asap = run (Pipeline.Asap Asap_prefetch.Asap.default) in
    let err =
      match sc.sc_kernel with
      | `Spmv -> Driver.check_spmv coo asap
      | `Sddmm -> Driver.check_sddmm coo ~kk asap
    in
    let bc = base.Driver.report.Exec.rp_cycles
    and ac = asap.Driver.report.Exec.rp_cycles in
    let ratio = float_of_int bc /. float_of_int ac in
    if err > 1e-9 then
      fail "%s: asap output off the dense reference by %g" sc.sc_name err;
    if min_ratio > 0. && ratio < min_ratio then
      fail "%s: asap only %.3fx baseline virtual cycles (need %.2fx)"
        sc.sc_name ratio min_ratio;
    Printf.sprintf
      "    { \"name\": %S, \"matrix\": %S, \"nnz\": %d,\n\
      \      \"baseline_cycles\": %d, \"asap_cycles\": %d,\n\
      \      \"asap_speedup\": %.3f, \"max_err\": %.2e }"
      sc.sc_name sc.sc_spec asap.Driver.nnz bc ac ratio err
  in
  let kernel_rows = List.map measure scenarios in

  (* --- Streaming-update serving gates --------------------------------- *)
  let profiles =
    List.map
      (fun p -> { p with Mix.p_engine = engine })
      (Mix.default_profiles ())
  in
  let reqs = Mix.hot_cold ~seed ~n profiles in
  let updates =
    Mix.update_stream ~seed ~n:n_updates ~mean_gap_ms:0.4 profiles
  in
  let replay jobs =
    Scheduler.run ~updates Config.(with_jobs jobs default) reqs
  in
  let lines rp =
    String.concat "\n"
      (Array.to_list
         (Array.map Scheduler.record_to_line rp.Scheduler.rp_records))
  in
  let rp = replay jobs in
  let rp_seq = replay 1 in
  let identical = String.equal (lines rp) (lines rp_seq) in
  let s = rp.Scheduler.rp_summary in
  let counter name =
    Option.value ~default:0 (Registry.get rp.Scheduler.rp_registry name)
  in
  let invalidated = counter "serve.cache.invalidated" in
  let stale = counter "serve.cache.stale_hit" in
  if not identical then
    fail "update replay records differ between --jobs 1 and --jobs %d" jobs;
  if invalidated <= 0 then
    fail "update stream invalidated no cache entries (%d updates)"
      n_updates;
  if stale <> 0 then fail "%d stale cache hits served" stale;
  if invalidated <> s.Slo.s_invalidated then
    fail "registry invalidations %d disagree with the summary %d"
      invalidated s.Slo.s_invalidated;

  Printf.printf
    "{\n\
    \  \"engine\": \"%s\",\n\
    \  \"kernels\": [\n%s\n  ],\n\
    \  \"serve_updates\": {\n\
    \    \"requests\": %d, \"updates\": %d, \"jobs\": %d,\n\
    \    \"served\": %d, \"hits\": %d, \"misses\": %d,\n\
    \    \"invalidated\": %d, \"stale_hits\": %d,\n\
    \    \"records_jobs_identical\": %b\n\
    \  }\n\
     }\n"
    (Exec.engine_to_string engine)
    (String.concat ",\n" kernel_rows)
    n n_updates jobs
    (s.Slo.s_ok + s.Slo.s_degraded)
    s.Slo.s_hits s.Slo.s_misses invalidated stale identical;
  match !failures with
  | [] -> ()
  | fs ->
    List.iter (fun m -> Printf.eprintf "bench/kernels: FAIL — %s\n" m)
      (List.rev fs);
    exit 1
