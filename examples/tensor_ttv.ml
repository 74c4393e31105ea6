(* Rank-3 tensors: CSF storage and the general bound recursion (§3.2.2).

   The paper's recursive formula

     crd_buf_sz(l1) = l1_pos[1]
     crd_buf_sz(lk) = lk_pos[crd_buf_sz(l(k-1))]

   only shows its full shape beyond two levels. This example contracts a
   rank-3 CSF tensor with a vector — a(i,j) = B(i,j,k) c(k) — and shows
   the three-deep loop nest, the three prefetch sites (two write-prefetch
   scatter sites for a, one gather site for c), the chained bound loads in
   the prologue, and the resulting speedups. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Storage = Asap_tensor.Storage
module Kernel = Asap_lang.Kernel
module Machine = Asap_sim.Machine
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Generate = Asap_workloads.Generate

let () =
  print_endline "=== TTV over rank-3 CSF with ASaP prefetching ===\n";
  let c = Pipeline.compile (Kernel.ttv ()) (Pipeline.Asap Asap.default) in
  print_string (Pipeline.listing c);
  Printf.printf "\nprefetch sites: %d (a at levels i and j, c at level k)\n\n"
    c.Pipeline.n_prefetch_sites;

  let dims = [| 400; 500; 200_000 |] in
  let coo = Generate.tensor3 ~seed:21 ~dims ~nnz:600_000 () in
  Printf.printf "tensor %dx%dx%d, %d nnz; %s\n\n" dims.(0) dims.(1) dims.(2)
    (Coo.nnz coo)
    (Storage.describe (Storage.pack (Encoding.csf 3) coo));

  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  Printf.printf "%-18s %12s %9s\n" "variant" "nnz/ms" "speedup";
  let base = ref 0. in
  List.iter
    (fun (vn, v) ->
      let r =
        Driver.run (Driver.Cfg.make ~machine ~variant:v ()) (Driver.Ttv None)
          coo
      in
      let err = Driver.check_ttv coo r in
      if err > 1e-9 then failwith "TTV result mismatch";
      let tp = Driver.throughput r in
      if vn = "baseline" then base := tp;
      Printf.printf "%-18s %12.0f %8.2fx\n%!" vn tp (tp /. !base))
    [ ("baseline", Pipeline.Baseline);
      ("asap", Pipeline.Asap { Asap.default with Asap.distance = 16 });
      ("ainsworth-jones",
       Pipeline.Ainsworth_jones { Aj.default with Aj.distance = 16 }) ];
  print_endline
    "\nASaP instruments all three compressed levels; the low-level pass\n\
     only matches the innermost loop's indirection."
