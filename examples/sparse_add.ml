(* Merge-based co-iteration (§3.1): sparse + sparse.

   When a loop must co-iterate two *sparse* operands, iterate-and-locate
   does not apply — neither side supports O(1) membership — and the
   compiler merges the two sorted coordinate streams instead. This example
   shows the generated two-pointer merge loops for element-wise union
   (add) and intersection (multiply), runs them over two random sparse
   vectors and two CSR matrices, and checks against dense references. *)

module Coo = Asap_tensor.Coo
module Machine = Asap_sim.Machine
module Printer = Asap_ir.Printer
module Merge = Asap_sparsifier.Merge
module Driver = Asap_core.Driver
module Reference = Asap_core.Reference
module Generate = Asap_workloads.Generate
module Rng = Asap_workloads.Rng

let sparse_vec ~seed ~n ~nnz =
  let rng = Rng.create seed in
  let seen = Hashtbl.create nnz in
  let entries = ref [] in
  while Hashtbl.length seen < nnz do
    let i = Rng.int rng n in
    if not (Hashtbl.mem seen i) then begin
      Hashtbl.add seen i ();
      entries := (i, 1. +. Rng.float rng) :: !entries
    end
  done;
  Coo.create ~dims:[| n |]
    ~crd:[| Array.of_list (List.map fst !entries) |]
    ~vals:(Array.of_list (List.map snd !entries))

let () =
  print_endline "=== Generated merge loop (sparse vector union add) ===\n";
  let c = Merge.vector_ewise Merge.Union_add in
  print_string (Printer.to_string c.Merge.m_fn);

  let machine = Machine.gracemont_scaled () in
  let n = 2_000_000 in
  let b = sparse_vec ~seed:71 ~n ~nnz:300_000 in
  let cvec = sparse_vec ~seed:72 ~n ~nnz:250_000 in
  print_endline "\n=== Sparse vector merges ===\n";
  List.iter
    (fun (label, op, reference) ->
      let r = Driver.vector_ewise machine op b cvec in
      let got = Option.get r.Driver.out_f in
      let expect = reference b cvec in
      assert (got = expect);
      Printf.printf "%-22s %9d+%d nnz -> %8.0f nnz/ms (checked)\n%!" label
        (Coo.nnz b) (Coo.nnz cvec) (Driver.throughput r))
    [ ("union add", Merge.Union_add, Reference.ewise_add);
      ("intersection multiply", Merge.Intersect_mul, Reference.ewise_mul) ];

  print_endline "\n=== CSR matrix merges (row-wise) ===\n";
  let bm =
    Generate.power_law ~seed:73 ~rows:2_000 ~cols:2_000 ~avg_deg:8 ~alpha:2.0 ()
    |> Coo.sorted_dedup
  in
  let cm =
    Generate.power_law ~seed:74 ~rows:2_000 ~cols:2_000 ~avg_deg:8 ~alpha:2.0 ()
    |> Coo.sorted_dedup
  in
  List.iter
    (fun (label, op, reference) ->
      let r = Driver.matrix_ewise machine op bm cm in
      assert (Option.get r.Driver.out_f = reference bm cm);
      Printf.printf "%-22s checked against the dense reference\n%!" label)
    [ ("matrix union add", Merge.Union_add, Reference.ewise_add);
      ("matrix intersection", Merge.Intersect_mul, Reference.ewise_mul) ]
