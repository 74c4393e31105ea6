(* Benchmark-check tests: the gate evaluator of bench/check.ml (each
   operator at its boundary, failing rows named, regress rows against a
   baseline file including a missing baseline row) and the pipeline
   suite run live, so the row schema and its gates cannot rot between
   @bench-smoke runs; and the bench library's metrics (summary
   statistics, least-squares fit, roofline). *)

module Jsonu = Asap_obs.Jsonu

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let row ?gate value =
  Check.row "s" "sc" "m" "u" Check.Virtual value ?gate

let no_baseline : Check.baseline = Hashtbl.create 1

let passes ?(baseline = no_baseline) r =
  snd (Check.evaluate ~baseline [ r ]) = 0

let test_operators () =
  let cases =
    [ (Check.Ge, 2.0, 2.0, true); (Check.Ge, 2.0, Float.pred 2.0, false);
      (Check.Gt, 0., 0., false); (Check.Gt, 0., Float.succ 0., true);
      (Check.Le, 1e-9, 1e-9, true); (Check.Le, 1e-9, Float.succ 1e-9, false);
      (Check.Eq, 18., 18., true); (Check.Eq, 18., 17., false) ]
  in
  List.iter
    (fun (op, b, v, expect) ->
      check
        (Printf.sprintf "%h %s %h" v (Check.op_string op) b)
        expect
        (passes (row ?gate:(Check.gate op b) v)))
    cases;
  check "ungated always passes" true (passes (row Float.nan))

let test_failing_row_named () =
  let rows =
    [ Check.row "serve" "cache" "speedup" "x" Check.Host 1.5
        ?gate:(Check.ge 2.0);
      Check.row "serve" "cached" "hit_rate" "fraction" Check.Virtual 0.9
        ?gate:(Check.ge 0.5);
      Check.row "kernels" "k" "max_err" "abs" Check.Virtual 1e-6
        ?gate:(Check.le 1e-9) ]
  in
  let lines, failures = Check.evaluate ~baseline:no_baseline rows in
  check_int "two failures" 2 failures;
  check_int "one line each" 2 (List.length lines);
  let has prefix =
    List.exists (fun l -> Astring_contains.contains l prefix) lines
  in
  check "speedup named" true (has "FAIL serve/cache/speedup");
  check "max_err named" true (has "FAIL kernels/k/max_err");
  check "passing row silent" false (has "hit_rate")

let test_regress_baseline () =
  let base_rows =
    [ Check.row "engine" "g" "wall_s" "s" Check.Host 10.;
      Check.row "serve" "cached" "req_per_s" "req/s" Check.Host 110. ]
  in
  (* The baseline is read back from the same JSONL the driver prints. *)
  let baseline =
    Check.baseline_of_lines
      (List.map (fun r -> Jsonu.to_string (Check.to_json r)) base_rows @ [ "" ])
  in
  let wall v =
    Check.row "engine" "g" "wall_s" "s" Check.Host v
      ?gate:(Check.gate ~regress:true Check.Le 1.10)
  in
  let rps v =
    Check.row "serve" "cached" "req_per_s" "req/s" Check.Host v
      ?gate:(Check.gate ~regress:true Check.Ge 1.10)
  in
  check "wall at 1.10x baseline" true (passes ~baseline (wall (10. *. 1.10)));
  check "wall past 1.10x baseline" false (passes ~baseline (wall 11.01));
  check "rps at baseline / 1.10" true (passes ~baseline (rps (110. /. 1.10)));
  check "rps below baseline / 1.10" false (passes ~baseline (rps 99.9));
  let missing =
    Check.row "engine" "other" "wall_s" "s" Check.Host 1e9
      ?gate:(Check.gate ~regress:true Check.Le 1.10)
  in
  let lines, failures = Check.evaluate ~baseline [ missing ] in
  check_int "missing baseline does not fail" 0 failures;
  check "missing baseline reported" true
    (lines = [ "no baseline engine/other/wall_s" ]);
  check "garbage baseline rejected" true
    (match Check.baseline_of_lines [ "{\"suite\":\"x\"}" ] with
     | _ -> false
     | exception Failure _ -> true)

let test_pipeline_suite () =
  let rows = Check.pipeline () in
  let lines, failures = Check.evaluate ~baseline:no_baseline rows in
  List.iter prerr_endline lines;
  check_int "pipeline gates hold" 0 failures;
  check "rows belong to the suite" true
    (List.for_all (fun r -> r.Check.suite = "pipeline") rows);
  check "every check of the suite is gated" true
    (List.length (List.filter (fun r -> r.Check.gate <> None) rows) = 5);
  let keys =
    List.map (fun r -> (r.Check.scenario, r.Check.metric)) rows
  in
  check "(scenario, metric) unique" true
    (List.length (List.sort_uniq compare keys) = List.length keys)

(* --- Metrics: the summary statistics, fits and roofline of the tables *)

let test_summary () =
  let xs = [| 2.; 4.; 8. |] in
  check "hmean" true
    (Float.abs (Summary.harmonic_mean xs -. (3. /. 0.875)) < 1e-9);
  check "mean" true (Summary.mean xs = 14. /. 3.);
  check "geomean" true (Float.abs (Summary.geometric_mean xs -. 4.) < 1e-9);
  let e = Summary.ews ~base:[| 1.; 1. |] ~variant:[| 2.; 2. |] in
  check "ews 2x" true (Float.abs (e -. 2.) < 1e-9);
  check "cov of constant" true (Summary.cov [| 5.; 5.; 5. |] = 0.)

let test_regress () =
  let pts = Array.init 20 (fun i ->
      let x = float_of_int i in
      (x, (0.5 *. x) +. 3.))
  in
  let f = Regress.fit pts in
  check "slope" true (Float.abs (f.Regress.slope -. 0.5) < 1e-9);
  check "intercept" true (Float.abs (f.Regress.intercept -. 3.) < 1e-9);
  check "r2 perfect" true (f.Regress.r2 > 0.999);
  check "break-even" true (Float.abs (Regress.x_at f 4.) -. 2. < 1e-9);
  check "render" true (Astring_contains.contains (Regress.to_string f) "R^2")

let test_roofline () =
  let m =
    Roofline.of_machine ~freq_ghz:2.4 ~width:3 ~line_bytes:64 ~dram_gap:2
      ~lat_l2:17 ~lat_l3:50 ~threads:1 ()
  in
  (* Low intensity: bandwidth bound; high intensity: compute bound. *)
  let low = Roofline.attainable m ~ceiling:"DRAM" ~ai:0.01 in
  let high = Roofline.attainable m ~ceiling:"DRAM" ~ai:100. in
  check "bw bound" true (low < m.Roofline.peak_gflops);
  check "compute bound" true (high = m.Roofline.peak_gflops);
  check "point renders" true
    (Astring_contains.contains
       (Roofline.point_to_string m
          { Roofline.p_label = "x"; p_ai = 0.1; p_gflops = 1.0 })
       "GFLOP/s")

let test_metrics_edge_cases () =
  (try
     let (_ : float) = Summary.harmonic_mean [| 1.; 0. |] in
     Alcotest.fail "hmean accepted non-positive"
   with Invalid_argument _ -> ());
  (try
     let (_ : float) = Summary.ews ~base:[| 1. |] ~variant:[| 1.; 2. |] in
     Alcotest.fail "ews accepted mismatched lengths"
   with Invalid_argument _ -> ());
  (try
     let (_ : Regress.fit) = Regress.fit [| (1., 1.) |] in
     Alcotest.fail "fit accepted a single point"
   with Invalid_argument _ -> ());
  (try
     let (_ : Regress.fit) = Regress.fit [| (2., 1.); (2., 3.) |] in
     Alcotest.fail "fit accepted degenerate x"
   with Invalid_argument _ -> ())

let suite =
  [ Alcotest.test_case "gate operators at the boundary" `Quick
      test_operators;
    Alcotest.test_case "failing row named" `Quick test_failing_row_named;
    Alcotest.test_case "regress vs baseline" `Quick test_regress_baseline;
    Alcotest.test_case "pipeline suite gates live" `Quick
      test_pipeline_suite;
    Alcotest.test_case "summary stats" `Quick test_summary;
    Alcotest.test_case "regression fit" `Quick test_regress;
    Alcotest.test_case "roofline" `Quick test_roofline;
    Alcotest.test_case "metrics edge cases" `Quick test_metrics_edge_cases ]
