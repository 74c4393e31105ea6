(* Offline refit of the tuning cost model's speedup law (lib/model).

   For every matrix in the synthetic suite this tool runs the candidate
   sweep (Tuning.tune) and the feature extractor, then fits the linear
   law (speedup ~ intercept + slope * MPKI) by least squares of the
   sweep's own profiled slice speedups against the analytic slice-MPKI
   estimate, and prints the fitted coefficients next to the shipped
   Cost_model.default so drift is visible when the simulator or suite
   changes. The model's accuracy gates (full-run cycles within 5% of
   the sweep's pick, every sweep rollback matched) are rows of
   [bench/main.exe check tune].

   Usage: fit_cost_model.exe [--quick]. [--quick] drops the two large
   matrices (seconds instead of minutes). *)

module Storage = Asap_tensor.Storage
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Tuning = Asap_core.Tuning
module Generate = Asap_workloads.Generate
module Features = Asap_model.Features
module Cost_model = Asap_model.Cost_model

(* The calibration suite: the irregular matrices the model must send to
   ASaP and the structured / cache-resident ones it must roll back,
   spanning both sides of the MPKI knee. *)
let small_suite =
  [ "powerlaw:3000,6"; "heavytail:2500,10000,10"; "uniform:2500,12000";
    "banded:2500,8"; "stencil2d:50"; "road:2000,3"; "powerlaw:400,5";
    "uniform:300,1200"; "banded:300,4"; "banded:4000,2" ]

let large_suite = [ "powerlaw:120000,8"; "uniform:40000,400000" ]

(* (estimated slice MPKI, profiled baseline / best-ASaP cycle ratio), or
   [None] when the sweep profiled no ASaP candidate. *)
let point machine enc spec =
  let coo =
    match Generate.of_spec spec with
    | Ok c -> c
    | Error e -> Printf.eprintf "fit_cost_model: %s\n" e; exit 1
  in
  let st = Storage.pack enc coo in
  let sweep = Tuning.tune ~st machine enc coo in
  let est = (Features.extract ~machine enc coo).Features.f_est_mpki in
  let cycles asap =
    List.filter_map
      (fun pe ->
        if Option.is_some pe.Tuning.pe_distance = asap then
          Some pe.Tuning.pe_cycles
        else None)
      sweep.Tuning.profile
  in
  match (cycles false, cycles true) with
  | base :: _, (_ :: _ as asap) ->
    let best = List.fold_left min max_int asap in
    if best > 0 then Some (est, float_of_int base /. float_of_int best)
    else None
  | _ -> None

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let suite = if quick then small_suite else small_suite @ large_suite in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let enc = Encoding.csr () in
  let pts = Array.of_list (List.filter_map (point machine enc) suite) in
  match Regress.fit pts with
  | exception Invalid_argument e -> Printf.printf "fit: %s\n" e
  | f ->
    let d = Cost_model.default in
    Printf.printf
      "fitted speedup law over %d slice profiles:\n\
      \  speedup ~ %.3f + %.4f * est_mpki  (R^2 %.3f)\n\
       shipped Cost_model.default:\n\
      \  speedup ~ %.3f + %.4f * est_mpki  (knee %.1f, min %.2f, \
       tiny-nnz %d -> d%d else d%d)\n"
      f.Regress.n f.Regress.intercept f.Regress.slope f.Regress.r2
      d.Cost_model.c_intercept d.Cost_model.c_slope
      d.Cost_model.c_rollback_mpki d.Cost_model.c_min_speedup
      d.Cost_model.c_tiny_nnz d.Cost_model.c_dist_short
      d.Cost_model.c_dist_long
