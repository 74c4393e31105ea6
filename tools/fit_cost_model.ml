(* Offline calibration and validation for the tuning cost model
   (lib/model). For every matrix in the synthetic suite this tool

   - runs the candidate sweep (Tuning.tune) and the feature model
     (Features.extract + Cost_model.predict) side by side;
   - does a FULL simulated run under each side's chosen variant and
     compares end-to-end cycles (the acceptance quantity: the model's
     pick must be within 5% of the sweep's pick on >= 90% of the suite,
     and must agree with every sweep rollback);
   - refits the linear speedup law (speedup ~ intercept + slope * MPKI)
     by least squares of the sweep's own profiled slice speedups against
     the analytic slice-MPKI estimate, and prints the fitted
     coefficients next to the shipped Cost_model.default so drift is
     visible when the simulator or suite changes.

   Exit 1 when either validation gate fails. [--quick] drops the two
   large matrices (seconds instead of minutes). *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Tuning = Asap_core.Tuning
module Asap = Asap_prefetch.Asap
module Generate = Asap_workloads.Generate
module Features = Asap_model.Features
module Cost_model = Asap_model.Cost_model

(* The calibration suite: the irregular matrices the model must send to
   ASaP (with the right distance rung) and the structured / cache-resident
   ones it must roll back, spanning both sides of the MPKI knee. *)
let small_suite =
  [ "powerlaw:3000,6"; "heavytail:2500,10000,10"; "uniform:2500,12000";
    "banded:2500,8"; "stencil2d:50"; "road:2000,3"; "powerlaw:400,5";
    "uniform:300,1200"; "banded:300,4"; "banded:4000,2" ]

let large_suite = [ "powerlaw:120000,8"; "uniform:40000,400000" ]

let variant_to_string = function
  | Pipeline.Baseline -> "baseline"
  | Pipeline.Asap p -> Printf.sprintf "asap-d%d" p.Asap.distance
  | Pipeline.Ainsworth_jones _ -> "aj"

type row = {
  spec : string;
  sweep_pick : Pipeline.variant;
  model_pick : Pipeline.variant;
  agree : bool;
  sweep_cycles : int;   (* full run under the sweep's pick *)
  model_cycles : int;   (* full run under the model's pick *)
  within5 : bool;
  est_mpki : float;
  slice_mpki : float;   (* sweep-measured baseline slice MPKI *)
  slice_speedup : float option;  (* profiled base/best-ASaP cycle ratio *)
}

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let engine =
    if Array.exists (( = ) "--engine") Sys.argv then begin
      let i = ref 0 in
      Array.iteri (fun j a -> if a = "--engine" then i := j + 1) Sys.argv;
      match Exec.engine_of_string Sys.argv.(!i) with
      | Some e -> e
      | None ->
        Printf.eprintf "unknown engine %s (%s)\n" Sys.argv.(!i)
          Exec.valid_engines;
        exit 1
    end
    else Exec.default_engine
  in
  let suite = if quick then small_suite else small_suite @ large_suite in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let enc = Encoding.csr () in
  let rows =
    List.map
      (fun spec ->
        let coo =
          match Generate.of_spec spec with
          | Ok c -> c
          | Error e -> Printf.eprintf "fit_cost_model: %s\n" e; exit 1
        in
        let st = Storage.pack enc coo in
        let sweep = Tuning.tune ~engine ~st machine enc coo in
        let f = Features.extract ~machine enc coo in
        let pred = Cost_model.predict machine f in
        let full variant =
          Driver.run (Driver.Cfg.make ~engine ~st ~machine ~variant ())
            (Driver.Spmv enc) coo
        in
        let sweep_run = full sweep.Tuning.chosen in
        let model_run =
          if Cost_model.same_choice sweep.Tuning.chosen pred.Cost_model.p_variant
          then sweep_run
          else full pred.Cost_model.p_variant
        in
        let sc = sweep_run.Driver.report.Exec.rp_cycles
        and mc = model_run.Driver.report.Exec.rp_cycles in
        let base_pe =
          List.find_opt
            (fun pe -> pe.Tuning.pe_distance = None)
            sweep.Tuning.profile
        in
        let best_asap =
          List.filter_map
            (fun pe ->
              match pe.Tuning.pe_distance with
              | Some _ -> Some pe.Tuning.pe_cycles
              | None -> None)
            sweep.Tuning.profile
          |> function [] -> None | l -> Some (List.fold_left min max_int l)
        in
        let slice_mpki =
          match base_pe with Some pe -> pe.Tuning.pe_mpki | None -> 0.
        in
        let slice_speedup =
          match (base_pe, best_asap) with
          | Some pe, Some best when best > 0 ->
            Some (float_of_int pe.Tuning.pe_cycles /. float_of_int best)
          | _ -> None
        in
        { spec;
          sweep_pick = sweep.Tuning.chosen;
          model_pick = pred.Cost_model.p_variant;
          agree =
            Cost_model.same_choice sweep.Tuning.chosen
              pred.Cost_model.p_variant;
          sweep_cycles = sc;
          model_cycles = mc;
          within5 = float_of_int mc <= 1.05 *. float_of_int sc;
          est_mpki = f.Features.f_est_mpki;
          slice_mpki;
          slice_speedup })
      suite
  in
  Printf.printf
    "%-24s %-12s %-12s %5s  %12s %12s %7s  %8s %8s\n"
    "matrix" "sweep" "model" "agree" "sweep-cyc" "model-cyc" "ratio"
    "est-mpki" "slc-mpki";
  List.iter
    (fun r ->
      Printf.printf
        "%-24s %-12s %-12s %5s  %12d %12d %7.3f  %8.2f %8.2f%s\n"
        r.spec
        (variant_to_string r.sweep_pick)
        (variant_to_string r.model_pick)
        (if r.agree then "yes" else "NO")
        r.sweep_cycles r.model_cycles
        (float_of_int r.model_cycles /. float_of_int r.sweep_cycles)
        r.est_mpki r.slice_mpki
        (if r.within5 then "" else "  <-- outside 5%"))
    rows;

  (* --- refit the speedup law over the sweep's own slice measurements -- *)
  let pts =
    List.filter_map
      (fun r ->
        match r.slice_speedup with
        | Some s -> Some (r.est_mpki, s)
        | None -> None)
      rows
  in
  (match pts with
   | [] | [ _ ] -> print_endline "\nfit: not enough points to regress"
   | _ ->
     let n = float_of_int (List.length pts) in
     let sx = List.fold_left (fun a (x, _) -> a +. x) 0. pts in
     let sy = List.fold_left (fun a (_, y) -> a +. y) 0. pts in
     let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0. pts in
     let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0. pts in
     let denom = (n *. sxx) -. (sx *. sx) in
     if abs_float denom < 1e-9 then
       print_endline "\nfit: degenerate design (all MPKI equal)"
     else begin
       let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
       let intercept = (sy -. (slope *. sx)) /. n in
       let d = Cost_model.default in
       Printf.printf
         "\nfitted speedup law over %d slice profiles:\n\
         \  speedup ~ %.3f + %.4f * est_mpki\n\
          shipped Cost_model.default:\n\
         \  speedup ~ %.3f + %.4f * est_mpki  (knee %.1f, min %.2f, \
          tiny-nnz %d -> d%d else d%d)\n"
         (List.length pts) intercept slope d.Cost_model.c_intercept
         d.Cost_model.c_slope d.Cost_model.c_rollback_mpki
         d.Cost_model.c_min_speedup d.Cost_model.c_tiny_nnz
         d.Cost_model.c_dist_short d.Cost_model.c_dist_long
     end);

  (* --- validation gates ---------------------------------------------- *)
  let total = List.length rows in
  let n_within = List.length (List.filter (fun r -> r.within5) rows) in
  let within_rate = float_of_int n_within /. float_of_int total in
  let rollback_misses =
    List.filter
      (fun r ->
        r.sweep_pick = Pipeline.Baseline
        && r.model_pick <> Pipeline.Baseline)
      rows
  in
  let n_agree = List.length (List.filter (fun r -> r.agree) rows) in
  Printf.printf
    "\nsummary: %d/%d exact agreement, %d/%d within 5%% full-run cycles \
     (%.0f%%), %d/%d sweep rollbacks matched\n"
    n_agree total n_within total (100. *. within_rate)
    (List.length
       (List.filter (fun r -> r.sweep_pick = Pipeline.Baseline) rows)
     - List.length rollback_misses)
    (List.length
       (List.filter (fun r -> r.sweep_pick = Pipeline.Baseline) rows));
  let ok = ref true in
  if within_rate < 0.90 then begin
    Printf.eprintf
      "fit_cost_model: FAIL — only %.0f%% of the suite within 5%% of the \
       sweep's full-run cycles (need 90%%)\n"
      (100. *. within_rate);
    ok := false
  end;
  if rollback_misses <> [] then begin
    List.iter
      (fun r ->
        Printf.eprintf
          "fit_cost_model: FAIL — sweep rolled back %s but the model \
           chose %s\n"
          r.spec
          (variant_to_string r.model_pick))
      rollback_misses;
    ok := false
  end;
  if not !ok then exit 1
