(* Golden-file tests for the IR printer/parser round-trip: each checked-in
   test/golden/<kernel>_<variant>.ir must byte-match what the pipeline
   emits today, parse back, reprint identically, and be alpha-equal to the
   freshly compiled function.  Regenerate deliberately with
   [dune exec tools/gen_golden.exe] and review the diff. *)

module Kernel = Asap_lang.Kernel
module Encoding = Asap_tensor.Encoding
module Pipeline = Asap_core.Pipeline
module Printer = Asap_ir.Printer
module Parse = Asap_ir.Parse

let check = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let variants =
  [ ("baseline", Pipeline.Baseline);
    ("asap", Pipeline.Asap Asap_prefetch.Asap.default);
    ("aj", Pipeline.Ainsworth_jones Asap_prefetch.Ainsworth_jones.default) ]

let cases =
  let open Encoding in
  [ ("spmv_coo", fun () -> Kernel.spmv ~enc:(coo ()) ());
    ("spmv_csr", fun () -> Kernel.spmv ~enc:(csr ()) ());
    ("spmv_csc", fun () -> Kernel.spmv ~enc:(csc ()) ());
    ("spmv_dcsr", fun () -> Kernel.spmv ~enc:(dcsr ()) ());
    ("spmv_bsr", fun () -> Kernel.spmv ~enc:(bsr ~bh:2 ~bw:2 ()) ());
    ("spmm_csr", fun () -> Kernel.spmm ~enc:(csr ()) ());
    ("sddmm_csr", fun () -> Kernel.sddmm ~enc:(csr ()) ());
    ("ttv_csf", fun () -> Kernel.ttv ~enc:(csf 3) ()) ]

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let golden_path name = Filename.concat "golden" (name ^ ".ir")

let test_golden () =
  List.iter
    (fun (kname, mk) ->
      List.iter
        (fun (vname, v) ->
          let name = Printf.sprintf "%s_%s" kname vname in
          let path = golden_path name in
          check (name ^ ": golden file present") true (Sys.file_exists path);
          let golden = read_file path in
          let c = Pipeline.compile (mk ()) v in
          let printed = Printer.to_string c.Pipeline.fn in
          check_s (name ^ ": printer output matches checked-in golden")
            golden printed;
          match Parse.func_result golden with
          | Error m -> Alcotest.fail (name ^ ": golden does not parse: " ^ m)
          | Ok fn ->
            check_s (name ^ ": reprint is byte-identical") golden
              (Printer.to_string fn);
            check (name ^ ": parsed func alpha-equal to compiled") true
              (Parse.equal_func fn c.Pipeline.fn))
        variants)
    cases

(* The golden set must cover exactly the generator grid — a stray or
   missing .ir file is a drift signal even before contents diverge. *)
let test_golden_inventory () =
  let expect =
    List.concat_map
      (fun (k, _) -> List.map (fun (v, _) -> k ^ "_" ^ v ^ ".ir") variants)
      cases
    |> List.sort compare
  in
  let actual =
    Sys.readdir "golden" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ir")
    |> List.sort compare
  in
  check_s "golden inventory" (String.concat " " expect)
    (String.concat " " actual)

(* Digests of the IR text the cloning passes emit: loop unrolling after
   the prefetch and the fold/licm tails, and ahead-of-time
   specialization (constant materialisation, full unrolling, DCE) with
   its statistics. Both passes mint fresh value ids while cloning, so
   any change to the id supply or to the order of definitions shows
   here as a changed listing. *)

let digest_kernels =
  let open Encoding in
  [ ("spmm_csr", (fun () -> Kernel.spmm ~enc:(csr ()) ()), [| 64; 48; 8 |]);
    ("sddmm_csr", (fun () -> Kernel.sddmm ~enc:(csr ()) ()), [| 64; 48; 8 |]);
    ("spmv_bsr2x2", (fun () -> Kernel.spmv ~enc:(bsr ~bh:2 ~bw:2 ()) ()),
     [| 64; 48 |]) ]

let unroll_pipelines =
  [ "sparsify,asap{d=16},unroll{f=4}"; "sparsify,fold,licm,unroll{f=2}" ]

let md5 s = Digest.to_hex (Digest.string s)

let unroll_digests () =
  List.concat_map
    (fun (kname, mk, _) ->
      List.map
        (fun spec ->
          let c = Pipeline.compile ~pipeline:spec (mk ()) Pipeline.Baseline in
          (kname ^ " " ^ spec, md5 (Printer.to_string c.Pipeline.fn)))
        unroll_pipelines)
    digest_kernels

let specialize_digests () =
  let kernels =
    digest_kernels
    @ [ ("ttv_csf", (fun () -> Kernel.ttv ~enc:(Encoding.csf 3) ()),
         [| 16; 12; 10 |]) ]
  in
  List.map
    (fun (kname, mk, extents) ->
      let c = Pipeline.compile (mk ()) (Pipeline.Asap Asap_prefetch.Asap.default) in
      let scalars = Asap_core.Bindings.scalar_args c.Pipeline.cc ~extents in
      let facts = Asap_sim.Specialize.make ~distance:16 ~scalars () in
      let fn, st = Asap_sim.Specialize.apply facts c.Pipeline.fn in
      let stats =
        Asap_sim.Specialize.(
          Printf.sprintf "params=%d folded=%d clamps=%d unrolled=%d iters=%d \
                          dce=%d stripped=%d"
            st.sp_params st.sp_folded st.sp_clamps st.sp_unrolled
            st.sp_iterations st.sp_dce st.sp_prefetch_stripped)
      in
      ("specialize " ^ kname, md5 (Printer.to_string fn ^ stats)))
    kernels

let pinned_digests =
  [ ("spmm_csr sparsify,asap{d=16},unroll{f=4}",
     "475916b867b85ede6814bbf47f420a4e");
    ("spmm_csr sparsify,fold,licm,unroll{f=2}",
     "25daacb3e2bf75e5cb5adee45e700646");
    ("sddmm_csr sparsify,asap{d=16},unroll{f=4}",
     "3a327dd4d05bd03cf758e5afa928440a");
    ("sddmm_csr sparsify,fold,licm,unroll{f=2}",
     "0c7bd23b01f7c5b2fbc06741abc6fd74");
    ("spmv_bsr2x2 sparsify,asap{d=16},unroll{f=4}",
     "bebade3b3d19577c0d8882b246c4de66");
    ("spmv_bsr2x2 sparsify,fold,licm,unroll{f=2}",
     "6764efc47c993576d9fc278016c431f8");
    ("specialize spmm_csr",
     "9947b5f031b57256a9ff6da0a5af478b");
    ("specialize sddmm_csr",
     "288801dcbe7b4b9fbfcb375d7bd507ef");
    ("specialize spmv_bsr2x2",
     "8c383cf41b046bbe42c328989823b8f1");
    ("specialize ttv_csf",
     "ca57625dbfd3b8c8328cf14ee417e188") ]

let test_clone_digests () =
  let got = unroll_digests () @ specialize_digests () in
  check_s "digest names" (String.concat "," (List.map fst pinned_digests))
    (String.concat "," (List.map fst got));
  List.iter2
    (fun (name, want) (_, d) -> check_s (name ^ ": IR digest") want d)
    pinned_digests got

let suite =
  [ Alcotest.test_case "printer/parser golden round-trip" `Quick test_golden;
    Alcotest.test_case "golden inventory" `Quick test_golden_inventory;
    Alcotest.test_case "unroll + specialize IR digests" `Quick
      test_clone_digests ]
