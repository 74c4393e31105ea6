(* Machine-learning SpMM: sparse weights times dense activations (§1).

   Demonstrates outer-loop prefetching (§5.2, Fig. 9): ASaP places the
   prefetch for the next needed row of the dense matrix C in the middle
   (position) loop, where its overhead is amortised over the whole
   innermost row loop. The Ainsworth & Jones pass inspects only innermost
   loops and generates no prefetches for SpMM at all — reproducing the
   behaviour of the published artifact (§5.3).

   Also shows the structured-matrix regression case: on a banded matrix the
   hardware prefetchers already do the job and ASaP's instruction overhead
   is visible. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Kernel = Asap_lang.Kernel
module Machine = Asap_sim.Machine
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Suite = Asap_workloads.Suite

let run_one machine name variant coo ~n =
  let r =
    Driver.run (Driver.Cfg.make ~n ~machine ~variant ())
      (Driver.Spmm (Encoding.csr ())) coo
  in
  let err = Driver.check_spmm coo ~n r in
  if err > 1e-6 then failwith "SpMM result mismatch";
  (name, Driver.throughput r, Driver.mpki r, r)

let () =
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized_spmm () in

  print_endline "=== Fig. 9: SpMM with ASaP outer-loop prefetching (CSR) ===\n";
  let c =
    Pipeline.compile (Kernel.spmm ())
      (Pipeline.Asap { Asap.default with strategy = Asap.Outer_only })
  in
  print_string (Pipeline.listing c);
  Printf.printf "(%d outer-loop site(s) instrumented)\n\n"
    c.Pipeline.n_prefetch_sites;

  let aj =
    Pipeline.compile (Kernel.spmm ()) (Pipeline.Ainsworth_jones Aj.default)
  in
  Printf.printf
    "Ainsworth & Jones on the same kernel: %d site(s) matched — the\n\
     innermost-loop pattern miss reproduces the artifact's behaviour.\n\n"
    aj.Pipeline.n_prefetch_sites;

  print_endline "=== SpMM on an unstructured weight matrix (GAP-twitter) ===\n";
  let entry = Suite.find "GAP-twitter" in
  let coo = entry.Suite.gen () in
  let variants =
    [ ("baseline", Pipeline.Baseline);
      ("asap-outer", Pipeline.Asap { Asap.default with strategy = Asap.Outer_only });
      ("ainsworth-jones", Pipeline.Ainsworth_jones Aj.default) ]
  in
  Printf.printf "%-16s %12s %9s %9s\n" "variant" "nnz/ms" "L2 MPKI" "speedup";
  let base = ref 0. in
  List.iter
    (fun (vn, v) ->
      let _, tp, mpki, _ = run_one machine vn v coo ~n:8 in
      if vn = "baseline" then base := tp;
      Printf.printf "%-16s %12.0f %9.2f %8.2fx\n%!" vn tp mpki (tp /. !base))
    variants;

  print_endline "\n=== SpMM on a structured matrix (banded): the regression case ===\n";
  let banded = (Suite.find "banded-300k").Suite.gen () in
  Printf.printf "%-16s %12s %9s %9s\n" "variant" "nnz/ms" "L2 MPKI" "speedup";
  let base = ref 0. in
  List.iter
    (fun (vn, v) ->
      let _, tp, mpki, _ = run_one machine vn v banded ~n:8 in
      if vn = "baseline" then base := tp;
      Printf.printf "%-16s %12.0f %9.2f %8.2fx\n%!" vn tp mpki (tp /. !base))
    variants
