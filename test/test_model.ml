(* Cost-model tests (lib/model): the feature extractor measures what it
   claims on constructed matrices, the model's decisions agree with the
   candidate sweep on a pinned calibration subset (exactly, and — the
   acceptance bound — within 5% of the sweep pick's full-run cycles),
   the rollback knee matches every sweep rollback on structured inputs,
   and Select's three modes expose the advertised fields. *)

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
module Select = Asap_model.Select

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized ()
let enc = Encoding.csr ()

let gen spec =
  match Generate.of_spec spec with
  | Ok coo -> coo
  | Error e -> Alcotest.fail e

(* Pinned calibration subset: small enough for CI, spanning both sides
   of the rollback knee and both distance rungs (bench/main.exe check
   tune validates the full suite). *)
let irregular_specs =
  [ "powerlaw:400,5"; "uniform:300,1200"; "road:2000,3";
    "uniform:2500,12000" ]

let structured_specs =
  [ "banded:300,4"; "banded:2500,8"; "stencil2d:50";
    "heavytail:2500,10000,10" ]

(* --- feature extractor ------------------------------------------------ *)

let test_features_counts () =
  let coo = gen "banded:300,4" in
  let f = Features.extract ~machine enc coo in
  check_int "rows" 300 f.Features.f_rows;
  check_int "cols" 300 f.Features.f_cols;
  check_int "nnz" (Coo.nnz coo) f.Features.f_nnz;
  check "row mean = nnz/rows" true
    (abs_float
       (f.Features.f_row_mean
        -. (float_of_int f.Features.f_nnz /. float_of_int f.Features.f_rows))
     < 1e-9);
  check "histogram covers all rows" true
    (Array.fold_left ( + ) 0 f.Features.f_hist = f.Features.f_rows);
  check "banded matrix is near-diagonal" true
    (f.Features.f_band_frac < 0.05);
  check_int "gather bytes = cols * 8" (300 * 8) f.Features.f_gather_bytes;
  check "slice within matrix" true
    (f.Features.f_slice_nnz > 0 && f.Features.f_slice_nnz <= f.Features.f_nnz);
  check "slice lines positive" true (f.Features.f_slice_lines > 0);
  check "extraction cost charged" true (f.Features.f_extract_cycles > 0);
  (* Scalar dump is total (histogram elided) and finite. *)
  List.iter
    (fun (k, v) ->
      check (k ^ " finite") true (Float.is_finite v))
    (Features.to_assoc f)

let test_features_separate_regimes () =
  (* The analytic MPKI estimate must order a cache-resident banded
     matrix far below an irregular power-law gather — that ordering is
     the whole rollback decision. *)
  let fb = Features.extract ~machine enc (gen "banded:2500,8") in
  let fp = Features.extract ~machine enc (gen "powerlaw:3000,6") in
  check "banded cache-resident" true (fb.Features.f_est_mpki < 2.0);
  check "power law memory-bound" true (fp.Features.f_est_mpki > 10.0);
  check "power law heavier tail" true
    (fp.Features.f_tail_mass > fb.Features.f_tail_mass);
  check "power law more varied rows" true
    (fp.Features.f_row_cov > fb.Features.f_row_cov)

let test_features_rank2_only () =
  let t3 = Generate.tensor3 ~seed:9 ~dims:[| 8; 8; 8 |] ~nnz:40 () in
  try
    ignore (Features.extract ~machine enc t3);
    Alcotest.fail "features must reject rank-3 tensors"
  with Invalid_argument _ -> ()

(* --- cost model ------------------------------------------------------- *)

let test_model_agrees_with_sweep () =
  List.iter
    (fun spec ->
      let coo = gen spec in
      let st = Storage.pack enc coo in
      let sweep = Tuning.tune ~st machine enc coo in
      let f = Features.extract ~machine enc coo in
      let pred = Cost_model.predict machine f in
      check (spec ^ ": model = sweep") true
        (Cost_model.same_choice sweep.Tuning.chosen
           pred.Cost_model.p_variant))
    (irregular_specs @ structured_specs)

(* Acceptance bound: on the pinned subset the model's pick must run the
   FULL matrix within 5% of the sweep's pick. *)
let test_model_within_5pct_full_run () =
  List.iter
    (fun spec ->
      let coo = gen spec in
      let st = Storage.pack enc coo in
      let sweep = Tuning.tune ~st machine enc coo in
      let pred =
        Cost_model.predict machine (Features.extract ~machine enc coo)
      in
      let cycles variant =
        (Driver.run (Driver.Cfg.make ~st ~machine ~variant ()) (Driver.Spmv enc)
           coo).Driver.report.Exec.rp_cycles
      in
      let sc = cycles sweep.Tuning.chosen
      and mc = cycles pred.Cost_model.p_variant in
      check
        (Printf.sprintf "%s: model %d within 5%% of sweep %d" spec mc sc)
        true
        (float_of_int mc <= 1.05 *. float_of_int sc))
    [ "powerlaw:400,5"; "uniform:300,1200"; "banded:300,4"; "stencil2d:50" ]

(* Acceptance bound: wherever the sweep rolls back to baseline on a
   structured (low-MPKI) matrix, the model's knee must too. *)
let test_model_matches_sweep_rollbacks () =
  List.iter
    (fun spec ->
      let coo = gen spec in
      let st = Storage.pack enc coo in
      let sweep = Tuning.tune ~st machine enc coo in
      check (spec ^ ": sweep rolls back") true
        (sweep.Tuning.chosen = Pipeline.Baseline);
      let pred =
        Cost_model.predict machine (Features.extract ~machine enc coo)
      in
      check (spec ^ ": model rolls back") true
        (pred.Cost_model.p_variant = Pipeline.Baseline);
      check (spec ^ ": reason mentions the knee") true
        (pred.Cost_model.p_reason <> ""))
    structured_specs

let test_cost_model_shape () =
  let f = Features.extract ~machine enc (gen "powerlaw:400,5") in
  let p = Cost_model.predict machine f in
  (match (p.Cost_model.p_variant, p.Cost_model.p_distance) with
   | Pipeline.Asap cfg, Some d ->
     check_int "distance echoed" cfg.Asap.distance d
   | Pipeline.Asap _, None ->
     Alcotest.fail "ASaP prediction must carry its distance"
   | _ -> Alcotest.fail "expected ASaP on a memory-bound matrix");
  check "speedup above the gate" true
    (p.Cost_model.p_speedup > 1.0);
  (* The distance ladder: tiny matrices take the short rung. *)
  let tiny = Cost_model.predict machine f in
  let big =
    Cost_model.predict machine
      (Features.extract ~machine enc (gen "uniform:2500,12000"))
  in
  check "tiny rung below big rung" true
    (match (tiny.Cost_model.p_distance, big.Cost_model.p_distance) with
     | Some a, Some b -> a < b
     | _ -> false);
  check "describe renders" true
    (String.length (Cost_model.describe p) > 0)

let test_same_choice () =
  let asap d = Pipeline.Asap { Asap.default with Asap.distance = d } in
  check "baseline = baseline" true
    (Cost_model.same_choice Pipeline.Baseline Pipeline.Baseline);
  check "same distance" true (Cost_model.same_choice (asap 16) (asap 16));
  check "different distance" false
    (Cost_model.same_choice (asap 16) (asap 32));
  check "different constructor" false
    (Cost_model.same_choice Pipeline.Baseline (asap 16))

(* --- Select: the three tuning modes ---------------------------------- *)

let test_select_modes () =
  let coo = gen "powerlaw:400,5" in
  let st = Storage.pack enc coo in
  let sw = Select.decide ~st ~mode:`Sweep machine enc coo in
  let md = Select.decide ~st ~mode:`Model machine enc coo in
  let hy = Select.decide ~st ~mode:`Hybrid machine enc coo in
  check "sweep carries no features" true (sw.Select.d_features = None);
  check "sweep carries the profile" true (sw.Select.d_sweep <> None);
  check "model carries features" true (md.Select.d_features <> None);
  check "model skips the sweep" true (md.Select.d_sweep = None);
  check "hybrid runs both" true
    (hy.Select.d_sweep <> None && hy.Select.d_model <> None);
  check "hybrid serves the sweep's choice" true
    (hy.Select.d_chosen = sw.Select.d_chosen);
  check "hybrid records agreement" true (hy.Select.d_agree = Some true);
  check "agreement has zero regret" true
    (hy.Select.d_delta_cycles = Some 0);
  (* Virtual decision cost: the model's O(nnz) pass is charged far below
     the sweep's sliced simulations, and hybrid pays for both. *)
  check "model decisions cheaper" true
    (md.Select.d_tune_cycles < sw.Select.d_tune_cycles);
  check_int "hybrid pays for both"
    (sw.Select.d_tune_cycles + md.Select.d_tune_cycles)
    hy.Select.d_tune_cycles;
  List.iter
    (fun d ->
      check "describe renders" true (String.length (Select.describe d) > 0))
    [ sw; md; hy ]

let suite =
  [ Alcotest.test_case "feature counts" `Quick test_features_counts;
    Alcotest.test_case "features separate regimes" `Quick
      test_features_separate_regimes;
    Alcotest.test_case "features rank-2 only" `Quick test_features_rank2_only;
    Alcotest.test_case "model agrees with sweep (pinned)" `Slow
      test_model_agrees_with_sweep;
    Alcotest.test_case "model within 5% full-run (pinned)" `Slow
      test_model_within_5pct_full_run;
    Alcotest.test_case "model matches sweep rollbacks" `Slow
      test_model_matches_sweep_rollbacks;
    Alcotest.test_case "cost model shape" `Quick test_cost_model_shape;
    Alcotest.test_case "same_choice" `Quick test_same_choice;
    Alcotest.test_case "select modes" `Quick test_select_modes ]
