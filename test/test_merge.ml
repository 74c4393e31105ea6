(* Tests for merge-based co-iteration (§3.1): element-wise union add and
   intersection multiply over two sparse operands. *)

module Coo = Asap_tensor.Coo
module Machine = Asap_sim.Machine
module Merge = Asap_sparsifier.Merge
module Driver = Asap_core.Driver
module Reference = Asap_core.Reference
open Asap_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine = Machine.gracemont_scaled ()

let vec ~n entries =
  Coo.create ~dims:[| n |]
    ~crd:[| Array.of_list (List.map fst entries) |]
    ~vals:(Array.of_list (List.map snd entries))

let test_structure () =
  let add = Merge.vector_ewise Merge.Union_add in
  let mul = Merge.vector_ewise Merge.Intersect_mul in
  let ca = Ir.counts add.Merge.m_fn and cm = Ir.counts mul.Merge.m_fn in
  (* Union needs the main merge plus two tail loops; intersection only the
     merge. *)
  check_int "union whiles" 3 ca.Ir.n_whiles;
  check_int "intersection whiles" 1 cm.Ir.n_whiles;
  check "both verify" true
    (Verify.check_result add.Merge.m_fn = Ok ()
     && Verify.check_result mul.Merge.m_fn = Ok ())

let test_vector_union_hand () =
  let b = vec ~n:8 [ (0, 1.); (3, 2.); (5, 3.) ] in
  let c = vec ~n:8 [ (3, 10.); (6, 20.) ] in
  let r = Driver.vector_ewise machine Merge.Union_add b c in
  Alcotest.(check (array (float 1e-12)))
    "union add" [| 1.; 0.; 0.; 12.; 0.; 3.; 20.; 0. |]
    (Option.get r.Driver.out_f)

let test_vector_intersection_hand () =
  let b = vec ~n:8 [ (0, 2.); (3, 2.); (5, 3.) ] in
  let c = vec ~n:8 [ (3, 10.); (5, 4.); (6, 20.) ] in
  let r = Driver.vector_ewise machine Merge.Intersect_mul b c in
  Alcotest.(check (array (float 1e-12)))
    "intersect mul" [| 0.; 0.; 0.; 20.; 0.; 12.; 0.; 0. |]
    (Option.get r.Driver.out_f)

let test_empty_operands () =
  let e = vec ~n:5 [] in
  let b = vec ~n:5 [ (1, 7.) ] in
  let r1 = Driver.vector_ewise machine Merge.Union_add e b in
  check "empty + b = b" true ((Option.get r1.Driver.out_f).(1) = 7.);
  let r2 = Driver.vector_ewise machine Merge.Intersect_mul e b in
  check "empty x b = 0" true
    (Array.for_all (fun x -> x = 0.) (Option.get r2.Driver.out_f))

let gen_vec_pair =
  QCheck2.Gen.(
    let* n = int_range 1 40 in
    let entries k =
      list_size (int_range 0 k)
        (pair (int_range 0 (n - 1))
           (map (fun v -> float_of_int v +. 1.) (int_range 1 20)))
    in
    let* b = entries 25 in
    let* c = entries 25 in
    pure (n, b, c))

(* Duplicates within one operand are summed at pack time; build the
   references from deduplicated COOs. *)
let dedup n entries =
  Coo.sorted_dedup (vec ~n entries)

let qcheck_vector_ops =
  QCheck2.Test.make ~count:200 ~name:"merge vectors = dense reference"
    gen_vec_pair (fun (n, be, ce) ->
      let b = dedup n be and c = dedup n ce in
      let add = Driver.vector_ewise machine Merge.Union_add b c in
      let mul = Driver.vector_ewise machine Merge.Intersect_mul b c in
      Option.get add.Driver.out_f = Reference.ewise_add b c
      && Option.get mul.Driver.out_f = Reference.ewise_mul b c)

let gen_mat_pair =
  QCheck2.Gen.(
    let* rows = int_range 1 10 in
    let* cols = int_range 1 10 in
    let entries k =
      list_size (int_range 0 k)
        (triple (int_range 0 (rows - 1)) (int_range 0 (cols - 1))
           (map (fun v -> float_of_int v +. 1.) (int_range 1 9)))
    in
    let* b = entries 30 in
    let* c = entries 30 in
    pure (rows, cols, b, c))

let qcheck_matrix_ops =
  QCheck2.Test.make ~count:150 ~name:"merge matrices = dense reference"
    gen_mat_pair (fun (rows, cols, be, ce) ->
      let b = Coo.sorted_dedup (Coo.of_triples ~rows ~cols be) in
      let c = Coo.sorted_dedup (Coo.of_triples ~rows ~cols ce) in
      let add = Driver.matrix_ewise machine Merge.Union_add b c in
      let mul = Driver.matrix_ewise machine Merge.Intersect_mul b c in
      Option.get add.Driver.out_f = Reference.ewise_add b c
      && Option.get mul.Driver.out_f = Reference.ewise_mul b c)

let test_shape_validation () =
  let b = vec ~n:5 [ (1, 1.) ] and c = vec ~n:6 [ (1, 1.) ] in
  (try
     let (_ : Driver.result) = Driver.vector_ewise machine Merge.Union_add b c in
     Alcotest.fail "accepted mismatched lengths"
   with Invalid_argument _ -> ())

let suite =
  [ Alcotest.test_case "merge loop structure" `Quick test_structure;
    Alcotest.test_case "vector union by hand" `Quick test_vector_union_hand;
    Alcotest.test_case "vector intersection by hand" `Quick
      test_vector_intersection_hand;
    Alcotest.test_case "empty operands" `Quick test_empty_operands;
    QCheck_alcotest.to_alcotest qcheck_vector_ops;
    QCheck_alcotest.to_alcotest qcheck_matrix_ops;
    Alcotest.test_case "shape validation" `Quick test_shape_validation ]
