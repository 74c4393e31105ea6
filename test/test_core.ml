(* End-to-end tests: driver correctness across kernels, formats and
   prefetch variants; workload generators. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Hierarchy = Asap_sim.Hierarchy
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Reference = Asap_core.Reference
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Rng = Asap_workloads.Rng
module Generate = Asap_workloads.Generate
module Suite = Asap_workloads.Suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine = Machine.gracemont_scaled ()

let small_matrix seed =
  Generate.power_law ~seed ~rows:300 ~cols:300 ~avg_deg:6 ~alpha:2.0 ()

let variants =
  [ ("baseline", Pipeline.Baseline);
    ("asap", Pipeline.Asap { Asap.default with Asap.distance = 8 });
    ("aj", Pipeline.Ainsworth_jones { Aj.default with Aj.distance = 8 }) ]

let encodings () =
  [ Encoding.coo (); Encoding.csr (); Encoding.csc (); Encoding.dcsr () ]

let cfg ?threads ?binary ?n ?(machine = machine) variant =
  Driver.Cfg.make ?threads ?binary ?n ~machine ~variant ()

let test_spmv_all_variants_all_formats () =
  let coo = small_matrix 1 in
  List.iter
    (fun enc ->
      List.iter
        (fun (vn, v) ->
          let r = Driver.run (cfg v) (Driver.Spmv enc) coo in
          let err = Driver.check_spmv coo r in
          check
            (Printf.sprintf "spmv %s/%s" enc.Encoding.name vn)
            true (err < 1e-9))
        variants)
    (encodings ())

let test_spmv_wide_indices () =
  (* 64-bit index buffers (paper §4.2) change addressing, not semantics. *)
  let coo = small_matrix 12 in
  let enc = Encoding.csr ~width:Encoding.W64 () in
  let r = Driver.run (cfg (Pipeline.Asap Asap.default)) (Driver.Spmv enc) coo in
  check "w64 correct" true (Driver.check_spmv coo r < 1e-9);
  (* Wider indices double the crd traffic footprint. *)
  let st32 =
    Asap_tensor.Storage.pack (Encoding.csr ()) coo
  in
  let st64 = Asap_tensor.Storage.pack enc coo in
  check "w64 footprint larger" true
    (Asap_tensor.Storage.footprint_bytes st64
     > Asap_tensor.Storage.footprint_bytes st32)

let test_spmm_all_variants () =
  let coo = small_matrix 2 in
  List.iter
    (fun (vn, v) ->
      let r = Driver.run (cfg ~n:4 v) (Driver.Spmm (Encoding.csr ())) coo in
      check ("spmm " ^ vn) true (Driver.check_spmm coo ~n:4 r < 1e-9))
    variants

let test_spmv_binary () =
  let coo = small_matrix 3 in
  List.iter
    (fun (vn, v) ->
      let r =
        Driver.run (cfg ~binary:true v) (Driver.Spmv (Encoding.csr ())) coo
      in
      check ("binary spmv " ^ vn) true (Driver.check_spmv coo r = 0.))
    variants

let test_spmm_binary () =
  let coo = small_matrix 4 in
  let r =
    Driver.run (cfg ~binary:true ~n:16 Pipeline.Baseline)
      (Driver.Spmm (Encoding.csr ())) coo
  in
  check "binary spmm" true (Driver.check_spmm coo ~n:16 r = 0.)

let test_spmv_parallel_matches () =
  let coo = small_matrix 5 in
  let m4 = Machine.gracemont_scaled ~cores:4 () in
  let csr = Driver.Spmv (Encoding.csr ()) in
  let r1 = Driver.run (cfg Pipeline.Baseline) csr coo in
  let r4 =
    Driver.run (cfg ~threads:4 ~machine:m4 Pipeline.Baseline) csr coo
  in
  check "parallel correct" true (Driver.check_spmv coo r4 < 1e-9);
  check "parallel cycles less" true
    (r4.Driver.report.Exec.rp_cycles <= r1.Driver.report.Exec.rp_cycles)

let test_parallel_rejects_compressed_outer () =
  let coo = small_matrix 6 in
  let m4 = Machine.gracemont_scaled ~cores:4 () in
  (try
     let (_ : Driver.result) =
       Driver.run (cfg ~threads:4 ~machine:m4 Pipeline.Baseline)
         (Driver.Spmv (Encoding.dcsr ())) coo
     in
     Alcotest.fail "dense-outer-loop must require a dense top level"
   with Invalid_argument _ -> ())

(* ASaP helps on a memory-bound unstructured matrix (the paper's central
   claim, scaled down): more throughput than baseline, and prefetches are
   issued and useful. *)
let test_asap_speedup_memory_bound () =
  let coo =
    Generate.power_law ~seed:42 ~rows:150_000 ~cols:150_000 ~avg_deg:5
      ~alpha:1.9 ()
  in
  let csr = Driver.Spmv (Encoding.csr ()) in
  let base = Driver.run (cfg Pipeline.Baseline) csr coo in
  let asap = Driver.run (cfg (Pipeline.Asap Asap.default)) csr coo in
  check "correct" true (Driver.check_spmv coo asap < 1e-9);
  let sp = Driver.throughput asap /. Driver.throughput base in
  check (Printf.sprintf "speedup > 1.1 (got %.2f)" sp) true (sp > 1.1);
  check "prefetches issued" true
    (Exec.Report.sw_issued asap.Driver.report > 0);
  check "prefetches useful" true
    (Exec.Report.sw_useful asap.Driver.report > 0)

(* On a cache-resident structured matrix ASaP's overhead is bounded (the
   paper reports up to ~10-20% slowdown in the compute-bound regime). *)
let test_asap_overhead_bounded () =
  let coo = Generate.banded ~seed:43 ~n:20_000 ~band:2 () in
  let csr = Driver.Spmv (Encoding.csr ()) in
  let base = Driver.run (cfg Pipeline.Baseline) csr coo in
  let asap = Driver.run (cfg (Pipeline.Asap Asap.default)) csr coo in
  let ratio = Driver.throughput asap /. Driver.throughput base in
  check (Printf.sprintf "overhead bounded (got %.2f)" ratio) true
    (ratio > 0.7)

(* The §3.2.2 mechanism: with segments shorter than the prefetch distance,
   the semantic bound covers upcoming segments while the segment-local
   bound cannot. *)
let test_semantic_bound_beats_segment_local_on_short_rows () =
  let coo =
    Generate.power_law ~seed:44 ~rows:40_000 ~cols:40_000 ~avg_deg:3
      ~alpha:2.5 ()
  in
  let enc = Encoding.csr () in
  let sem =
    Driver.run (cfg (Pipeline.Asap Asap.default)) (Driver.Spmv enc) coo
  in
  let seg =
    Driver.run
      (cfg
         (Pipeline.Asap
            { Asap.default with Asap.bound_mode = Asap.Segment_local }))
      (Driver.Spmv enc) coo
  in
  check "semantic >= segment-local on short rows" true
    (Driver.throughput sem >= Driver.throughput seg)

(* Profile-guided tuning: rolls prefetching back on cache-resident inputs
   and picks a sane distance on memory-bound ones. *)
let test_tuning_rollback () =
  let coo = Generate.banded ~seed:51 ~n:4_000 ~band:2 () in
  let d = Asap_core.Tuning.tune machine (Encoding.csr ()) coo in
  check "baseline chosen" true (d.Asap_core.Tuning.chosen = Pipeline.Baseline);
  check "single profile entry" true
    (List.length d.Asap_core.Tuning.profile = 1);
  check "describe renders" true
    (Astring_contains.contains (Asap_core.Tuning.describe d) "baseline")

let test_tuning_picks_distance () =
  let coo =
    Generate.power_law ~seed:52 ~rows:120_000 ~cols:120_000 ~avg_deg:5
      ~alpha:1.9 ()
  in
  let d =
    Asap_core.Tuning.tune ~candidates:[ 4; 16; 64 ] machine (Encoding.csr ())
      coo
  in
  (match d.Asap_core.Tuning.chosen with
   | Pipeline.Asap cfg ->
     check "candidate distance" true
       (List.mem cfg.Asap_prefetch.Asap.distance [ 4; 16; 64 ])
   | Pipeline.Baseline | Pipeline.Ainsworth_jones _ ->
     Alcotest.fail "expected ASaP on a memory-bound matrix");
  check_int "profiled baseline + 3 candidates" 4
    (List.length d.Asap_core.Tuning.profile)

let test_tuning_needs_dense_outer () =
  let coo = small_matrix 8 in
  (try
     let (_ : Asap_core.Tuning.decision) =
       Asap_core.Tuning.tune machine (Encoding.dcsr ()) coo
     in
     Alcotest.fail "tuning must reject compressed outer loops"
   with Invalid_argument _ -> ())

(* Satellite: an empty candidate list used to crash deep in the profile
   loop; it must be rejected up front as a caller error. *)
let test_tuning_rejects_empty_candidates () =
  let coo = small_matrix 8 in
  try
    let (_ : Asap_core.Tuning.decision) =
      Asap_core.Tuning.tune ~candidates:[] machine (Encoding.csr ()) coo
    in
    Alcotest.fail "tuning must reject an empty candidate list"
  with Invalid_argument msg ->
    check "empty-candidates message names the cause" true
      (Astring_contains.contains msg "empty candidate")

(* The sweep decision is a function of the candidate SET: permuting the
   list changes neither the pick nor the per-candidate profile, and
   cycle ties break towards the smaller distance. *)
let test_tuning_candidate_order_invariant () =
  let coo =
    Generate.power_law ~seed:53 ~rows:40_000 ~cols:40_000 ~avg_deg:5
      ~alpha:1.9 ()
  in
  let enc = Encoding.csr () in
  let sorted_profile d =
    List.sort compare d.Asap_core.Tuning.profile
  in
  let d1 =
    Asap_core.Tuning.tune ~candidates:[ 4; 16; 64 ] machine enc coo
  in
  let d2 =
    Asap_core.Tuning.tune ~candidates:[ 64; 4; 16 ] machine enc coo
  in
  check "same decision under permutation" true
    (d1.Asap_core.Tuning.chosen = d2.Asap_core.Tuning.chosen);
  check "same profile under permutation" true
    (sorted_profile d1 = sorted_profile d2);
  (* Duplicated candidates tie exactly; the duplicate must not flip the
     pick. *)
  let d3 =
    Asap_core.Tuning.tune ~candidates:[ 16; 4; 16; 64 ] machine enc coo
  in
  check "duplicates don't flip the pick" true
    (d1.Asap_core.Tuning.chosen = d3.Asap_core.Tuning.chosen)

(* Rank-3 CSF tensor-times-vector: the §3.2.2 bound recursion at depth 3,
   all variants, checked against the reference. *)
let test_ttv_all_variants () =
  let coo =
    Asap_workloads.Generate.tensor3 ~seed:9 ~dims:[| 20; 30; 40 |] ~nnz:500 ()
  in
  List.iter
    (fun (vn, v) ->
      let r = Driver.run (cfg v) (Driver.Ttv None) coo in
      check ("ttv " ^ vn) true (Driver.check_ttv coo r < 1e-9))
    variants

let test_ttv_sites_and_bounds () =
  let k = Asap_lang.Kernel.ttv () in
  let c = Pipeline.compile k (Pipeline.Asap Asap.default) in
  check_int "three sites" 3 c.Pipeline.n_prefetch_sites;
  let s = Pipeline.listing c in
  (* The recursive chain: Bj_pos indexed by Bi_pos's total, Bk_pos by
     Bj_pos's total (§3.2.2). *)
  check "chain level 2" true
    (Astring_contains.contains s "memref.load %Bj_pos[%Bi_pos_end]");
  check "chain level 3" true
    (Astring_contains.contains s "memref.load %Bk_pos[%Bj_pos_end]")

(* Optimisation passes preserve end-to-end semantics and don't regress
   instruction counts. *)
let test_passes_preserve_spmv () =
  let coo = small_matrix 7 in
  let k = Asap_lang.Kernel.spmv ~enc:(Encoding.csr ()) () in
  let c = Pipeline.compile k (Pipeline.Asap Asap.default) in
  let fn1, _ = Asap_ir.Licm.run c.Pipeline.fn in
  let fn2, _ = Asap_ir.Fold.run fn1 in
  let st = Asap_tensor.Storage.pack (Encoding.csr ()) coo in
  let run fn =
    let out = Array.make coo.Coo.dims.(0) 0. in
    let dense =
      [ ("c", Asap_sim.Runtime.RF (Array.init coo.Coo.dims.(1) float_of_int));
        ("a", Asap_sim.Runtime.RF out) ]
    in
    let bufs =
      Asap_core.Bindings.storage_bufs c.Pipeline.cc st ~binary:false ~dense
    in
    let scalars =
      Asap_core.Bindings.scalar_args c.Pipeline.cc
        ~extents:[| coo.Coo.dims.(0); coo.Coo.dims.(1) |]
    in
    let (_ : Asap_sim.Exec.report) = Asap_sim.Exec.run machine fn ~bufs ~scalars in
    out
  in
  let a = run c.Pipeline.fn and b = run fn2 in
  check "passes preserve results" true (a = b)

let test_pipeline_optimize_flag () =
  let coo = small_matrix 11 in
  let enc = Encoding.csr () in
  let r =
    let k = Asap_lang.Kernel.spmv ~enc () in
    let v = Pipeline.Asap Asap.default in
    let pipeline = Pipeline.spec_of_variant v ^ ",fold,licm" in
    let c = Pipeline.compile ~pipeline k v in
    check "optimized IR verifies" true
      (Asap_ir.Verify.check_result c.Pipeline.fn = Ok ());
    Driver.run { (cfg v) with Driver.Cfg.pipeline = Some pipeline }
      (Driver.Spmv enc) coo
  in
  check "still correct" true (Driver.check_spmv coo r < 1e-9)

let test_pipeline_names () =
  check "names" true
    (Pipeline.variant_name Pipeline.Baseline = "baseline"
     && Pipeline.variant_name (Pipeline.Asap Asap.default) = "asap")

(* --- Reference kernels --------------------------------------------- *)

let test_reference_spmv () =
  let coo = Coo.of_triples ~rows:2 ~cols:3 [ (0, 1, 2.); (1, 2, 3.) ] in
  let a = Reference.spmv coo [| 1.; 10.; 100. |] in
  Alcotest.(check (array (float 1e-12))) "spmv" [| 20.; 300. |] a

let test_reference_spmm () =
  let coo = Coo.of_triples ~rows:2 ~cols:2 [ (0, 0, 2.); (1, 1, 3.) ] in
  let a = Reference.spmm coo [| 1.; 2.; 3.; 4. |] ~n:2 in
  Alcotest.(check (array (float 1e-12))) "spmm" [| 2.; 4.; 9.; 12. |] a

let test_reference_binary () =
  let coo = Coo.of_triples ~rows:2 ~cols:2 [ (0, 0, 1.); (1, 1, 1.) ] in
  let a = Reference.spmv_binary coo [| 1; 0 |] in
  check "binary" true (a = [| 1; 0 |])

(* --- Workloads ----------------------------------------------------- *)

let test_bindings_errors () =
  let coo = small_matrix 10 in
  let k = Asap_lang.Kernel.spmv ~enc:(Encoding.csr ()) () in
  let c = Pipeline.compile k Pipeline.Baseline in
  let st = Asap_tensor.Storage.pack (Encoding.csr ()) coo in
  (* Missing dense operand binding is reported by name. *)
  (try
     let (_ : (Asap_ir.Ir.buffer * Asap_sim.Runtime.rbuf) list) =
       Asap_core.Bindings.storage_bufs c.Pipeline.cc st ~binary:false
         ~dense:[ ("c", Asap_sim.Runtime.RF [| 1. |]) ]
     in
     Alcotest.fail "accepted missing output binding"
   with Invalid_argument m ->
     check "names the operand" true (Astring_contains.contains m "a"));
  (* Extent array too short. *)
  (try
     let (_ : int list) =
       Asap_core.Bindings.scalar_args c.Pipeline.cc ~extents:[| 3 |]
     in
     Alcotest.fail "accepted missing extent"
   with Invalid_argument _ -> ())

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  check "same stream" true
    (List.init 20 (fun _ -> Rng.int a 1000)
     = List.init 20 (fun _ -> Rng.int b 1000));
  let r = Rng.create 8 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    if x < 0. || x >= 1. then Alcotest.fail "float out of range"
  done

let test_rng_power_law_bounds () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let d = Rng.power_law r ~alpha:2.0 ~x_min:1 ~x_max:50 in
    if d < 1 || d > 50 then Alcotest.fail "power law out of bounds"
  done

let test_rng_exponential_mean () =
  let r = Rng.create 10 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:8.0 in
    if x < 0 then Alcotest.fail "exponential must be non-negative";
    sum := !sum + x
  done;
  let m = float_of_int !sum /. float_of_int n in
  check (Printf.sprintf "mean near 8 (got %.2f)" m) true
    (m > 7.0 && m < 9.0)

let test_generators_deterministic () =
  let a = Generate.power_law ~seed:5 ~rows:100 ~cols:100 ~avg_deg:4 ~alpha:2. () in
  let b = Generate.power_law ~seed:5 ~rows:100 ~cols:100 ~avg_deg:4 ~alpha:2. () in
  check "same matrix" true (Coo.to_dense a = Coo.to_dense b)

let test_generator_shapes () =
  let g = Generate.stencil_2d ~seed:1 ~side:10 () in
  check_int "5-point interior nnz" (10 * 10 * 5 - 4 * 10) (Coo.nnz g);
  let b = Generate.banded ~seed:1 ~n:10 ~band:1 () in
  check_int "tridiagonal nnz" 28 (Coo.nnz b);
  let u = Generate.uniform ~seed:1 ~rows:50 ~cols:50 ~nnz:200 () in
  check "uniform nnz" true (Coo.nnz u = 200);
  let h = Generate.heavy_tail ~seed:1 ~rows:100 ~cols:100 ~nnz:400 ~hubs:4 () in
  let st = Coo.matrix_stats h in
  check "hubs dominate" true (st.Coo.s_row_max > 40)

(* --- Par: persistent pool ------------------------------------------- *)

(* Domain ids come from one process-wide counter, so a probe domain's
   id tells how many domains were spawned since the previous probe. *)
let probe_domain_id () =
  Domain.join (Domain.spawn (fun () -> (Domain.self () :> int)))

let test_par_map_reuses_workers () =
  let xs = Array.init 101 Fun.id in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int))
    "map = Array.map" (Array.map f xs) (Asap_core.Par.map ~jobs:4 f xs);
  (* The pool now has the helpers of a 4-job map: repeated maps of at
     most 4 jobs reuse them and spawn nothing. *)
  let before = probe_domain_id () in
  for jobs = 2 to 4 do
    for _ = 1 to 5 do
      Alcotest.(check (array int))
        "repeated map = Array.map" (Array.map f xs)
        (Asap_core.Par.map ~jobs f xs)
    done
  done;
  check_int "no domain spawned by repeated maps" (before + 1)
    (probe_domain_id ())

let test_par_map_nested_and_errors () =
  (* A worker (or the draining caller) mapping again must degrade to
     Array.map, not deadlock — also when it asks for more jobs than the
     pool has helpers. *)
  let inner = Array.init 5 Fun.id in
  let nested =
    Asap_core.Par.map ~jobs:3
      (fun x ->
        Array.fold_left ( + ) x (Asap_core.Par.map ~jobs:16 Fun.id inner))
      (Array.init 40 Fun.id)
  in
  Alcotest.(check (array int))
    "nested map degrades" (Array.init 40 (fun x -> x + 10)) nested;
  (* The first worker exception is re-raised on the caller; the pool
     stays usable afterwards. *)
  (try
     ignore
       (Asap_core.Par.map ~jobs:3
          (fun x -> if x = 17 then failwith "boom" else x)
          (Array.init 40 Fun.id));
     Alcotest.fail "exception swallowed"
   with Failure m -> check "error propagates" true (m = "boom"));
  Alcotest.(check (array int))
    "pool usable after error" (Array.init 9 succ)
    (Asap_core.Par.map ~jobs:3 succ (Array.init 9 Fun.id))

let test_par_map_jobs_invariant () =
  let xs = Array.init 64 (fun i -> i - 7) in
  let f x = Printf.sprintf "%d" (x * 3) in
  Alcotest.(check (array string))
    "Par.map jobs 1 = jobs 4" (Asap_core.Par.map ~jobs:1 f xs)
    (Asap_core.Par.map ~jobs:4 f xs)

(* Satellite d: profile-guided tuning is jobs-invariant — the decision
   AND the profile it was made from are identical whether the profile
   runs sequentially or on the domain pool, across encodings with a
   dense outer loop and both execution engines. *)
let test_tuning_jobs_invariant () =
  let coo =
    Generate.power_law ~seed:57 ~rows:40_000 ~cols:40_000 ~avg_deg:5
      ~alpha:1.9 ()
  in
  List.iter
    (fun (en, enc) ->
      List.iter
        (fun engine ->
          let tune jobs =
            Asap_core.Tuning.tune ~engine ~jobs ~candidates:[ 8; 32 ] machine
              enc coo
          in
          let d1 = tune 1 and d4 = tune 4 in
          let label =
            Printf.sprintf "%s/%s" en (Exec.engine_to_string engine)
          in
          check (label ^ ": same decision") true
            (d1.Asap_core.Tuning.chosen = d4.Asap_core.Tuning.chosen);
          check (label ^ ": identical profile") true
            (d1.Asap_core.Tuning.profile = d4.Asap_core.Tuning.profile))
        [ `Interp; `Bytecode ])
    [ ("csr", Encoding.csr ()); ("csc", Encoding.csc ()) ]

let test_suite_structure () =
  check "has groups" true (List.length Suite.groups = 7);
  check "selected six" true (List.length Suite.selected_groups = 6);
  List.iter
    (fun g -> check ("group nonempty " ^ g) true (Suite.by_group g <> []))
    Suite.groups;
  check "spmm subset nonempty" true (List.length Suite.spmm_subset >= 8);
  let e = Suite.find "GAP-twitter" in
  check "twitter in GAP" true (e.Suite.group = "GAP");
  (try
     let (_ : Suite.entry) = Suite.find "no-such-matrix" in
     Alcotest.fail "found a ghost"
   with Invalid_argument _ -> ())

let suite =
  [ Alcotest.test_case "spmv variants x formats" `Slow
      test_spmv_all_variants_all_formats;
    Alcotest.test_case "spmv wide indices" `Quick test_spmv_wide_indices;
    Alcotest.test_case "spmm variants" `Slow test_spmm_all_variants;
    Alcotest.test_case "binary spmv" `Slow test_spmv_binary;
    Alcotest.test_case "binary spmm" `Slow test_spmm_binary;
    Alcotest.test_case "parallel spmv" `Slow test_spmv_parallel_matches;
    Alcotest.test_case "parallel needs dense outer" `Quick
      test_parallel_rejects_compressed_outer;
    Alcotest.test_case "asap speedup (memory bound)" `Slow
      test_asap_speedup_memory_bound;
    Alcotest.test_case "asap overhead bounded" `Slow
      test_asap_overhead_bounded;
    Alcotest.test_case "semantic vs segment bound" `Slow
      test_semantic_bound_beats_segment_local_on_short_rows;
    Alcotest.test_case "tuning rollback" `Slow test_tuning_rollback;
    Alcotest.test_case "tuning picks distance" `Slow
      test_tuning_picks_distance;
    Alcotest.test_case "tuning needs dense outer" `Quick
      test_tuning_needs_dense_outer;
    Alcotest.test_case "tuning rejects empty candidates" `Quick
      test_tuning_rejects_empty_candidates;
    Alcotest.test_case "tuning candidate-order invariant" `Slow
      test_tuning_candidate_order_invariant;
    Alcotest.test_case "ttv all variants" `Quick test_ttv_all_variants;
    Alcotest.test_case "ttv csf bound chain" `Quick test_ttv_sites_and_bounds;
    Alcotest.test_case "licm+fold preserve spmv" `Quick
      test_passes_preserve_spmv;
    Alcotest.test_case "pipeline optimize flag" `Quick
      test_pipeline_optimize_flag;
    Alcotest.test_case "pipeline names" `Quick test_pipeline_names;
    Alcotest.test_case "reference spmv" `Quick test_reference_spmv;
    Alcotest.test_case "reference spmm" `Quick test_reference_spmm;
    Alcotest.test_case "reference binary" `Quick test_reference_binary;
    Alcotest.test_case "bindings errors" `Quick test_bindings_errors;
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng power law" `Quick test_rng_power_law_bounds;
    Alcotest.test_case "rng exponential" `Quick test_rng_exponential_mean;
    Alcotest.test_case "generators deterministic" `Quick
      test_generators_deterministic;
    Alcotest.test_case "generator shapes" `Quick test_generator_shapes;
    Alcotest.test_case "par map reuses workers" `Quick
      test_par_map_reuses_workers;
    Alcotest.test_case "par map nested/errors" `Quick
      test_par_map_nested_and_errors;
    Alcotest.test_case "par map jobs-invariant" `Quick
      test_par_map_jobs_invariant;
    Alcotest.test_case "tuning jobs-invariant" `Slow
      test_tuning_jobs_invariant;
    Alcotest.test_case "suite structure" `Quick test_suite_structure ]

(* qcheck: interpreted sparsified SpMV equals the reference for random
   matrices across every encoding and variant. *)
let qcheck_spmv_equivalence =
  let gen =
    QCheck2.Gen.(
      let* rows = int_range 1 20 in
      let* cols = int_range 1 20 in
      let* n = int_range 0 40 in
      let* entries =
        list_size (pure n)
          (triple (int_range 0 (rows - 1)) (int_range 0 (cols - 1))
             (map (fun x -> float_of_int x) (int_range 1 9)))
      in
      let* enc_i = int_range 0 3 in
      let* var_i = int_range 0 2 in
      pure (rows, cols, entries, enc_i, var_i))
  in
  QCheck2.Test.make ~count:120 ~name:"interp spmv = reference (random)" gen
    (fun (rows, cols, entries, enc_i, var_i) ->
      let coo = Coo.of_triples ~rows ~cols entries in
      let enc = List.nth (encodings ()) enc_i in
      let _, v = List.nth variants var_i in
      let r = Driver.run (cfg v) (Driver.Spmv enc) coo in
      Driver.check_spmv coo r < 1e-9)

let suite = suite @ [ QCheck_alcotest.to_alcotest qcheck_spmv_equivalence ]
