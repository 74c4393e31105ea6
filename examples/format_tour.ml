(* Format tour: one matrix, every storage format.

   Walks the paper's §2 pipeline for COO, CSR, CSC and DCSR on a small
   random matrix: coordinate hierarchy trees, serialised buffers, the
   sparsified loop structure, and ASaP's per-format prefetch sites —
   including CSC's *write* prefetch for the scattered output (ASaP handles
   any format expressible in the dialect, contribution 1). Finishes with a
   Matrix Market round trip. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Storage = Asap_tensor.Storage
module Coord_tree = Asap_tensor.Coord_tree
module Matrix_market = Asap_tensor.Matrix_market
module Kernel = Asap_lang.Kernel
module Ig = Asap_sparsifier.Iteration_graph
module Machine = Asap_sim.Machine
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Generate = Asap_workloads.Generate
open Asap_ir

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i <= nh - nn && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let () =
  let small =
    Generate.power_law ~seed:11 ~rows:8 ~cols:8 ~avg_deg:2 ~alpha:2.0 ()
  in
  let formats =
    [ Encoding.coo (); Encoding.csr (); Encoding.csc (); Encoding.dcsr () ]
  in
  List.iter
    (fun enc ->
      Printf.printf "==== %s ====\n\n%s\n\n" enc.Encoding.name
        (Encoding.to_string enc);
      let st = Storage.pack enc small in
      Printf.printf "%s\n\n%s\n" (Storage.describe st)
        (Coord_tree.to_string (Coord_tree.of_storage st));
      let kernel = Kernel.spmv ~enc () in
      Printf.printf "iteration graph:\n%s\n\n" (Ig.to_string (Ig.build kernel));
      let c = Pipeline.compile kernel (Pipeline.Asap Asap.default) in
      let counts = Ir.counts c.Pipeline.fn in
      Printf.printf
        "sparsified: %d for(s), %d while(s); ASaP sites %d, prefetches %d\n"
        counts.Ir.n_fors counts.Ir.n_whiles c.Pipeline.n_prefetch_sites
        counts.Ir.n_prefetches;
      (* CSC scatters into the output: the prefetch is a write prefetch. *)
      if enc.Encoding.name = "CSC" then begin
        let listing = Pipeline.listing c in
        assert (contains_sub listing ", write, locality");
        print_endline "CSC output scatter gets a *write* prefetch:";
        List.iter
          (fun line ->
            if contains_sub line "prefetch %a" then
              print_endline ("  " ^ String.trim line))
          (String.split_on_char '\n' listing)
      end;
      (* Every format computes the same result. *)
      let machine = Machine.gracemont_scaled () in
      let r =
        Driver.run
          (Driver.Cfg.make ~machine ~variant:(Pipeline.Asap Asap.default) ())
          (Driver.Spmv enc) small
      in
      assert (Driver.check_spmv small r < 1e-9);
      Printf.printf "SpMV on the simulator: OK (matches dense reference)\n\n")
    formats;
  (* Matrix Market round trip. *)
  let text = Matrix_market.to_string small in
  let back = Matrix_market.of_string text in
  assert (Coo.to_dense back = Coo.to_dense small);
  Printf.printf "Matrix Market round trip: OK (%d bytes of .mtx text)\n"
    (String.length text)
