(* Tests for the sparse tensor substrate: COO, encodings, storage,
   coordinate trees, Matrix Market I/O, dense tensors. *)

open Asap_tensor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The Fig. 2 matrix: non-zeros (0,0)=1, (0,2)=2, (2,2)=3; row 1 empty. *)
let fig2 () =
  Coo.of_triples ~rows:3 ~cols:3 [ (0, 0, 1.); (0, 2, 2.); (2, 2, 3.) ]

(* Element [k]'s coordinate tuple, in dimension order. *)
let coord (c : Coo.t) k = Array.map (fun d -> d.(k)) c.Coo.crd

let all_encodings () =
  [ Encoding.coo (); Encoding.csr (); Encoding.csc (); Encoding.dcsr ();
    Encoding.csf 2 ]

(* --- Coo ----------------------------------------------------------- *)

let test_coo_create_bounds () =
  (try
     let (_ : Coo.t) = Coo.of_triples ~rows:2 ~cols:2 [ (2, 0, 1.) ] in
     Alcotest.fail "accepted out-of-bound coordinate"
   with Invalid_argument _ -> ())

let test_coo_ragged () =
  (* A record built without [create]: the sort must refuse it, not read
     past the shorter coordinate array. *)
  let c = { Coo.dims = [| 4; 4 |]; crd = [| [| 0; 1 |]; [| 0 |] |];
            vals = [| 1.; 2. |] } in
  try
    ignore (Coo.sorted_dedup c);
    Alcotest.fail "sorted a ragged COO"
  with Invalid_argument _ -> ()

let test_coo_sorted_dedup () =
  let c =
    Coo.of_triples ~rows:3 ~cols:3
      [ (2, 2, 1.); (0, 0, 1.); (2, 2, 2.); (0, 2, 5.) ]
  in
  let s = Coo.sorted_dedup c in
  check_int "dedup sums duplicates" 3 (Coo.nnz s);
  let d = Coo.to_dense s in
  check "sum" true (d.((2 * 3) + 2) = 3.);
  (* Sorted row-major. *)
  check "sorted" true
    (coord s 0 = [| 0; 0 |] && coord s 2 = [| 2; 2 |])

let test_coo_sorted_dedup_perm () =
  let c = fig2 () in
  let s = Coo.sorted_dedup ~perm:[| 1; 0 |] c in
  (* Column-major order: (0,0), (0,2) ... by column first: (0,0), (2,2)?
     columns: 0 -> (0,0); 2 -> (0,2), (2,2). *)
  check "first is col 0" true (coord s 0 = [| 0; 0 |]);
  check "second is (0,2)" true (coord s 1 = [| 0; 2 |]);
  check "third is (2,2)" true (coord s 2 = [| 2; 2 |])

let test_coo_stats () =
  let st = Coo.matrix_stats (fig2 ()) in
  check_int "rows" 3 st.Coo.s_rows;
  check_int "nnz" 3 st.Coo.s_nnz;
  check_int "max row" 2 st.Coo.s_row_max;
  check_int "min row" 0 st.Coo.s_row_min;
  check "footprint" true (st.Coo.s_footprint_bytes > 0)

(* --- Encoding ------------------------------------------------------ *)

let test_encoding_validate () =
  (try
     let (_ : Encoding.t) =
       Encoding.make "bad" [| Encoding.Singleton |] [| 0 |]
     in
     Alcotest.fail "accepted singleton top level"
   with Invalid_argument _ -> ());
  (try
     let (_ : Encoding.t) =
       Encoding.make "bad"
         [| Encoding.Dense; Encoding.Dense |]
         [| 0; 0 |]
     in
     Alcotest.fail "accepted duplicate dim mapping"
   with Invalid_argument _ -> ())

let test_encoding_props () =
  check "csr pos" true (Encoding.has_pos (Encoding.Compressed { unique = true }));
  check "dense no pos" false (Encoding.has_pos Encoding.Dense);
  check "singleton crd" true (Encoding.has_crd Encoding.Singleton);
  let e = Encoding.csc () in
  check_int "csc level0 stores dim 1" 1 e.Encoding.dim_to_lvl.(0);
  check "fig1b text" true
    (Astring_contains.contains (Encoding.to_string (Encoding.csr ()))
       "compressed")

(* --- Storage ------------------------------------------------------- *)

let test_storage_csr_fig2 () =
  let st = Storage.pack (Encoding.csr ()) (fig2 ()) in
  (match Storage.pos_buf st 1 with
   | Some pos -> Alcotest.(check (array int)) "Bj_pos" [| 0; 2; 2; 3 |] pos
   | None -> Alcotest.fail "csr level 1 must have pos");
  (match Storage.crd_buf st 1 with
   | Some crd -> Alcotest.(check (array int)) "Bj_crd" [| 0; 2; 2 |] crd
   | None -> Alcotest.fail "csr level 1 must have crd");
  check "no level-0 buffers" true
    (Storage.pos_buf st 0 = None && Storage.crd_buf st 0 = None)

let test_storage_coo_fig2 () =
  let st = Storage.pack (Encoding.coo ()) (fig2 ()) in
  (match Storage.pos_buf st 0 with
   | Some pos -> Alcotest.(check (array int)) "Bi_pos" [| 0; 3 |] pos
   | None -> Alcotest.fail "coo level 0 must have pos");
  (match Storage.crd_buf st 0 with
   | Some crd -> Alcotest.(check (array int)) "Bi_crd" [| 0; 0; 2 |] crd
   | None -> Alcotest.fail "coo level 0 must have crd");
  (match Storage.crd_buf st 1 with
   | Some crd -> Alcotest.(check (array int)) "Bj_crd" [| 0; 2; 2 |] crd
   | None -> Alcotest.fail "coo level 1 must have crd")

let test_storage_dcsr_fig2 () =
  let st = Storage.pack (Encoding.dcsr ()) (fig2 ()) in
  (match Storage.pos_buf st 0, Storage.crd_buf st 0 with
   | Some pos, Some crd ->
     Alcotest.(check (array int)) "Bi_pos" [| 0; 2 |] pos;
     Alcotest.(check (array int)) "Bi_crd" [| 0; 2 |] crd
   | _ -> Alcotest.fail "dcsr level 0 buffers");
  (match Storage.pos_buf st 1 with
   | Some pos -> Alcotest.(check (array int)) "Bj_pos" [| 0; 2; 3 |] pos
   | None -> Alcotest.fail "dcsr level 1 pos")

let test_storage_csc_fig2 () =
  let st = Storage.pack (Encoding.csc ()) (fig2 ()) in
  (match Storage.pos_buf st 1, Storage.crd_buf st 1 with
   | Some pos, Some crd ->
     (* Columns 0,1,2: col 0 has row 0; col 1 empty; col 2 has rows 0,2. *)
     Alcotest.(check (array int)) "Bi_pos" [| 0; 1; 1; 3 |] pos;
     Alcotest.(check (array int)) "Bi_crd" [| 0; 0; 2 |] crd
   | _ -> Alcotest.fail "csc level 1 buffers")

let test_storage_roundtrip_all () =
  let c = fig2 () in
  let reference = Coo.to_dense c in
  List.iter
    (fun enc ->
      let st = Storage.pack enc c in
      let back = Coo.to_dense (Storage.to_coo st) in
      Alcotest.(check (array (float 1e-9)))
        ("roundtrip " ^ enc.Encoding.name) reference back)
    (all_encodings ())

let test_storage_convert () =
  let st = Storage.pack (Encoding.csr ()) (fig2 ()) in
  let st' = Storage.convert (Encoding.dcsr ()) st in
  check "converted format name" true (st'.Storage.enc.Encoding.name = "DCSR");
  Alcotest.(check (array (float 1e-9)))
    "convert preserves" (Coo.to_dense (fig2 ()))
    (Coo.to_dense (Storage.to_coo st'))

let test_storage_empty () =
  let c = Coo.create ~dims:[| 4; 4 |] ~crd:[| [||]; [||] |] ~vals:[||] in
  List.iter
    (fun enc ->
      let st = Storage.pack enc c in
      check_int ("empty nnz " ^ enc.Encoding.name) 0 (Coo.nnz (Storage.to_coo st)))
    (all_encodings ())

let test_storage_footprint () =
  let st32 = Storage.pack (Encoding.csr ()) (fig2 ()) in
  let st64 = Storage.pack (Encoding.csr ~width:Encoding.W64 ()) (fig2 ()) in
  check "64-bit indices cost more" true
    (Storage.footprint_bytes st64 > Storage.footprint_bytes st32)

let test_storage_csf_rank3 () =
  (* A 2x2x3 tensor with nnz at (0,0,1), (0,1,2), (1,1,0). *)
  let c =
    Coo.create ~dims:[| 2; 2; 3 |]
      ~crd:[| [| 0; 0; 1 |]; [| 0; 1; 1 |]; [| 1; 2; 0 |] |]
      ~vals:[| 1.; 2.; 3. |]
  in
  let st = Storage.pack (Encoding.csf 3) c in
  (match Storage.pos_buf st 0, Storage.crd_buf st 0 with
   | Some pos, Some crd ->
     Alcotest.(check (array int)) "Bi_pos" [| 0; 2 |] pos;
     Alcotest.(check (array int)) "Bi_crd" [| 0; 1 |] crd
   | _ -> Alcotest.fail "csf level 0");
  (match Storage.pos_buf st 1, Storage.crd_buf st 1 with
   | Some pos, Some crd ->
     Alcotest.(check (array int)) "Bj_pos" [| 0; 2; 3 |] pos;
     Alcotest.(check (array int)) "Bj_crd" [| 0; 1; 1 |] crd
   | _ -> Alcotest.fail "csf level 1");
  (match Storage.pos_buf st 2, Storage.crd_buf st 2 with
   | Some pos, Some crd ->
     Alcotest.(check (array int)) "Bk_pos" [| 0; 1; 2; 3 |] pos;
     Alcotest.(check (array int)) "Bk_crd" [| 1; 2; 0 |] crd
   | _ -> Alcotest.fail "csf level 2");
  Alcotest.(check (array (float 1e-12))) "vals" [| 1.; 2.; 3. |] st.Storage.vals;
  (* Roundtrip through iter. *)
  Alcotest.(check (array (float 1e-12)))
    "rank-3 roundtrip" (Coo.to_dense c)
    (Coo.to_dense (Storage.to_coo st))

let test_storage_single_row_col () =
  (* Degenerate shapes: 1xN and Nx1. *)
  let row = Coo.of_triples ~rows:1 ~cols:6 [ (0, 1, 1.); (0, 5, 2.) ] in
  let col = Coo.of_triples ~rows:6 ~cols:1 [ (2, 0, 1.); (4, 0, 2.) ] in
  List.iter
    (fun enc ->
      List.iter
        (fun c ->
          Alcotest.(check (array (float 1e-12)))
            ("degenerate " ^ enc.Encoding.name)
            (Coo.to_dense c)
            (Coo.to_dense (Storage.to_coo (Storage.pack enc c))))
        [ row; col ])
    (all_encodings ())

let test_storage_full_matrix () =
  (* A fully dense 3x3 stored sparsely. *)
  let entries = ref [] in
  for i = 0 to 2 do
    for j = 0 to 2 do
      entries := (i, j, float_of_int ((i * 3) + j + 1)) :: !entries
    done
  done;
  let c = Coo.of_triples ~rows:3 ~cols:3 !entries in
  List.iter
    (fun enc ->
      Alcotest.(check (array (float 1e-12)))
        ("full " ^ enc.Encoding.name) (Coo.to_dense c)
        (Coo.to_dense (Storage.to_coo (Storage.pack enc c))))
    (all_encodings ())

(* qcheck: pack/unpack is lossless for every encoding. *)
let qcheck_roundtrip =
  let gen =
    QCheck2.Gen.(
      let* rows = int_range 1 12 in
      let* cols = int_range 1 12 in
      let* n = int_range 0 30 in
      let* entries =
        list_size (pure n)
          (triple (int_range 0 (rows - 1)) (int_range 0 (cols - 1))
             (map (fun x -> float_of_int x +. 1.) (int_range 1 50)))
      in
      pure (rows, cols, entries))
  in
  QCheck2.Test.make ~count:200 ~name:"storage roundtrip (all encodings)" gen
    (fun (rows, cols, entries) ->
      let c = Coo.of_triples ~rows ~cols entries in
      let reference = Coo.to_dense (Coo.sorted_dedup c) in
      List.for_all
        (fun enc ->
          let st = Storage.pack enc c in
          Coo.to_dense (Storage.to_coo st) = reference)
        (all_encodings ()))

(* --- Coord_tree ---------------------------------------------------- *)

let test_coord_tree_shapes () =
  let c = fig2 () in
  let tree_of enc = Coord_tree.of_storage (Storage.pack enc c) in
  let coo = tree_of (Encoding.coo ()) in
  let csr = tree_of (Encoding.csr ()) in
  let dcsr = tree_of (Encoding.dcsr ()) in
  (* Fig. 2: COO top level has 3 nodes (row 0 twice), CSR has 3 (all rows),
     DCSR has 2 (non-empty rows only). *)
  check_int "coo top" 3 (List.length coo.Coord_tree.children);
  check_int "csr top" 3 (List.length csr.Coord_tree.children);
  check_int "dcsr top" 2 (List.length dcsr.Coord_tree.children);
  check_int "coo leaves" 3 (Coord_tree.leaf_count coo);
  check_int "csr leaves" 3 (Coord_tree.leaf_count csr);
  check_int "depth" 2 (Coord_tree.depth csr);
  check "drawing mentions values" true
    (Astring_contains.contains (Coord_tree.to_string csr) "= 3")

(* --- Matrix market ------------------------------------------------- *)

let test_mm_roundtrip () =
  let roundtrip name c =
    let c' = Matrix_market.of_string (Matrix_market.to_string c) in
    Alcotest.(check (array (float 0.))) name (Coo.to_dense c) (Coo.to_dense c')
  in
  roundtrip "mm roundtrip" (fig2 ());
  (* The generators emit duplicate coordinates; the writer sums them in
     element order, as [to_dense] and the pack do, so the file parses and
     the dense round trip is bit-exact. *)
  roundtrip "mm roundtrip with duplicates"
    (Coo.of_triples ~rows:3 ~cols:3
       [ (0, 1, 0.1); (2, 2, 1.); (0, 1, 0.2); (1, 0, 5.); (0, 1, 0.3) ])

let test_mm_pattern_symmetric () =
  let s =
    "%%MatrixMarket matrix coordinate pattern symmetric\n\
     3 3 2\n\
     2 1\n\
     3 3\n"
  in
  let c = Matrix_market.of_string s in
  check_int "symmetric expansion" 3 (Coo.nnz c);
  let d = Coo.to_dense c in
  check "mirrored" true (d.(1 * 3) = 1. && d.(0 * 3 + 1) = 1. && d.(8) = 1.)

let test_mm_integer_and_comments () =
  let s =
    "%%MatrixMarket matrix coordinate integer general\n\
     % a comment line\n\
     % another\n\
     2 2 2\n\
     1 1 7\n\
     2 2 -3\n"
  in
  let c = Matrix_market.of_string s in
  let d = Coo.to_dense c in
  check "integer values" true (d.(0) = 7. && d.(3) = -3.)

let test_mm_skew_symmetric () =
  let s =
    "%%MatrixMarket matrix coordinate real skew-symmetric\n\
     3 3 1\n\
     3 1 2.5\n"
  in
  let c = Matrix_market.of_string s in
  let d = Coo.to_dense c in
  check "entry" true (d.((2 * 3) + 0) = 2.5);
  check "negated mirror" true (d.((0 * 3) + 2) = -2.5)

let test_mm_errors () =
  List.iter
    (fun s ->
      try
        let (_ : Coo.t) = Matrix_market.of_string s in
        Alcotest.fail "accepted malformed file"
      with Matrix_market.Parse_error _ -> ())
    [ ""; "%%MatrixMarket matrix array real general\n1 1\n1.0\n";
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n";
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n" ]

let test_mm_crlf_and_whitespace () =
  (* Files written on Windows terminate lines with \r\n; tolerate that,
     plus leading/trailing blanks, blank lines and comments after the
     header. *)
  let crlf =
    "%%MatrixMarket matrix coordinate real general\r\n\
     3 3 2\r\n\
     1 1 1.5\r\n\
     3 3 2.5\r\n"
  in
  let c = Matrix_market.of_string crlf in
  check_int "crlf nnz" 2 (Coo.nnz c);
  check "crlf values" true
    (let d = Coo.to_dense c in
     d.(0) = 1.5 && d.(8) = 2.5);
  let messy =
    String.concat "\n"
      [ "%%MatrixMarket matrix coordinate real general";
        "% a comment before the size line"; ""; "\t 3 3 2  ";
        "% a comment between entries"; "  1 1 1.5"; ""; "3 3 2.5  "; "" ]
  in
  let c' = Matrix_market.of_string messy in
  Alcotest.(check (array (float 1e-12)))
    "messy = crlf" (Coo.to_dense c) (Coo.to_dense c')

let test_mm_duplicate_rejected () =
  List.iter
    (fun (label, s) ->
      try
        let (_ : Coo.t) = Matrix_market.of_string s in
        Alcotest.fail ("accepted " ^ label)
      with Matrix_market.Parse_error msg ->
        check (label ^ " names the entry") true
          (Astring_contains.contains msg "duplicate"))
    [ ("plain duplicate",
       "%%MatrixMarket matrix coordinate real general\n\
        3 3 2\n2 2 1.0\n2 2 5.0\n");
      ("symmetric mirror duplicate",
       "%%MatrixMarket matrix coordinate real symmetric\n\
        3 3 2\n2 1 1.0\n1 2 5.0\n") ]

(* --- Dense --------------------------------------------------------- *)

let test_dense () =
  let d = Dense.init [| 2; 3 |] (fun c -> float_of_int ((c.(0) * 3) + c.(1))) in
  check "get2" true (Dense.get2 d 1 2 = 5.);
  Dense.set2 d 1 2 9.;
  check "set2" true (Dense.get2 d 1 2 = 9.);
  let e = Dense.copy d in
  Dense.fill e 0.;
  check "copy independent" true (Dense.get2 d 1 2 = 9.);
  check "max_abs_diff" true (Dense.max_abs_diff d e = 9.)

let suite =
  [ Alcotest.test_case "coo bounds" `Quick test_coo_create_bounds;
    Alcotest.test_case "coo sorted_dedup" `Quick test_coo_sorted_dedup;
    Alcotest.test_case "coo ragged rejected" `Quick test_coo_ragged;
    Alcotest.test_case "coo dedup perm" `Quick test_coo_sorted_dedup_perm;
    Alcotest.test_case "coo stats" `Quick test_coo_stats;
    Alcotest.test_case "encoding validate" `Quick test_encoding_validate;
    Alcotest.test_case "encoding props" `Quick test_encoding_props;
    Alcotest.test_case "storage csr fig2" `Quick test_storage_csr_fig2;
    Alcotest.test_case "storage coo fig2" `Quick test_storage_coo_fig2;
    Alcotest.test_case "storage dcsr fig2" `Quick test_storage_dcsr_fig2;
    Alcotest.test_case "storage csc fig2" `Quick test_storage_csc_fig2;
    Alcotest.test_case "storage roundtrip" `Quick test_storage_roundtrip_all;
    Alcotest.test_case "storage convert" `Quick test_storage_convert;
    Alcotest.test_case "storage empty" `Quick test_storage_empty;
    Alcotest.test_case "storage footprint" `Quick test_storage_footprint;
    Alcotest.test_case "storage csf rank3" `Quick test_storage_csf_rank3;
    Alcotest.test_case "storage degenerate shapes" `Quick
      test_storage_single_row_col;
    Alcotest.test_case "storage full matrix" `Quick test_storage_full_matrix;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "coord tree fig2" `Quick test_coord_tree_shapes;
    Alcotest.test_case "matrix market roundtrip" `Quick test_mm_roundtrip;
    Alcotest.test_case "matrix market pattern" `Quick test_mm_pattern_symmetric;
    Alcotest.test_case "matrix market integer" `Quick
      test_mm_integer_and_comments;
    Alcotest.test_case "matrix market skew" `Quick test_mm_skew_symmetric;
    Alcotest.test_case "matrix market errors" `Quick test_mm_errors;
    Alcotest.test_case "matrix market crlf/whitespace" `Quick
      test_mm_crlf_and_whitespace;
    Alcotest.test_case "matrix market duplicates" `Quick
      test_mm_duplicate_rejected;
    Alcotest.test_case "dense tensor" `Quick test_dense ]
