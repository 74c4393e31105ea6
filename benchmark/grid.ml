(* The two kernel-grid workloads: closed loops of independent kernel runs,
   one at a time.

   paper-grid is the paper's experiment (SpMV and SpMM, ASaP against no
   prefetching and against Ainsworth & Jones) on four matrix families
   whose gather footprints fall on both sides of the simulated L2: ASaP
   wins on uniform and power-law, loses a little on banded and road.
   Driver.run repacks every cell, so simulation and packing dominate.

   small-kernels is time to first result for a fresh artefact: tiny
   matrices, every kernel x format, eight pipeline specs, specialization
   off and on. Every op pays compile, specialize and engine assembly,
   which paper-grid barely exercises. *)

module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Driver = Asap_core.Driver
module Pipeline = Asap_core.Pipeline
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Generate = Asap_workloads.Generate
module Rng = Asap_workloads.Rng
module W = Workload

type cell = {
  c_group : string;
  c_role : W.role;
  c_op : Kernel_op.t;
  c_last : Asap_sim.Exec.report option ref;
}

let matrix spec =
  match Generate.of_spec spec with
  | Ok coo -> coo
  | Error e -> invalid_arg ("benchmark: " ^ e)

let op_of ~plain (c : cell) : W.op =
  let finish (r : Driver.result) =
    c.c_last := Some r.Driver.report;
    { W.digest = W.digest_of r;
      check =
        (fun () -> if Kernel_op.check c.c_op r > W.tolerance then 1 else 0) }
  in
  let run () = finish (plain c.c_op) in
  { W.units = 1; plain = run; untraced = run;
    traced = (fun tr -> finish (Kernel_op.traced tr c.c_op)) }

let make ~plain (cells : cell list) : W.t =
  let cells = Array.of_list cells in
  let samples () =
    Array.to_list cells
    |> List.map (fun c ->
           { W.group = c.c_group; role = c.c_role;
             machine = c.c_op.Kernel_op.cfg.Driver.Cfg.machine;
             report = Option.get !(c.c_last) })
  in
  { W.ops = Array.map (op_of ~plain) cells;
    warmup = (fun () -> ignore (plain cells.(0).c_op));
    virtual_metrics =
      (fun () ->
        let s = samples () in
        W.prefetch_metrics s @ W.closed_loop_metrics s) }

let cell ~group ~role ~machine ?pipeline ?(specialize = false) ~variant spec
    coo =
  { c_group = group; c_role = role;
    c_op =
      { Kernel_op.spec; coo;
        cfg =
          Driver.Cfg.make ?pipeline ~specialize ~machine ~variant () };
    c_last = ref None }

let d16 = { Asap.default with Asap.distance = 16 }
let aj16 = { Aj.default with Aj.distance = 16 }

let paper_grid ~seed ~smoke =
  let rows = if smoke then 300 else 20000 in
  let spmv_m = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let spmm_m = Machine.gracemont_scaled ~hw:Machine.hw_optimized_spmm () in
  let families =
    [ ("powerlaw", Printf.sprintf "powerlaw:%d,8@%d" rows seed);
      ("uniform", Printf.sprintf "uniform:%d,%d@%d" rows (8 * rows) seed);
      ("road", Printf.sprintf "road:%d,3@%d" rows seed);
      ("banded", Printf.sprintf "banded:%d,4@%d" rows seed) ]
  in
  let csr = Encoding.csr () in
  List.concat_map
    (fun (name, spec) ->
      let coo = matrix spec in
      let spmv role variant =
        cell ~group:(name ^ "/spmv") ~role ~machine:spmv_m ~variant
          (Driver.Spmv csr) coo
      in
      let spmm role variant =
        cell ~group:(name ^ "/spmm") ~role ~machine:spmm_m ~variant
          (Driver.Spmm csr) coo
      in
      [ spmv W.Base Pipeline.Baseline;
        spmv W.Asap (Pipeline.Asap d16);
        spmv W.Aj (Pipeline.Ainsworth_jones aj16);
        spmm W.Base Pipeline.Baseline;
        spmm W.Asap (Pipeline.Asap { d16 with Asap.strategy = Asap.Outer_only })
      ])
    families
  |> make ~plain:Kernel_op.run_driver

(* Eight registry-valid pipelines: the three variants, ASaP placed on
   the outer loop, and ASaP or no prefetching followed by IR passes. The
   variant gives the specializer its prefetch distance. *)
let pipelines =
  [ ("sparsify", W.Base, Pipeline.Baseline);
    ("sparsify,asap{d=16}", W.Asap, Pipeline.Asap d16);
    ("sparsify,aj{d=16}", W.Aj, Pipeline.Ainsworth_jones aj16);
    ("sparsify,asap{d=16,strategy=outer}", W.Other, Pipeline.Asap d16);
    ("sparsify,asap{d=16},fold,licm", W.Other, Pipeline.Asap d16);
    ("sparsify,asap{d=16},unroll{f=4}", W.Other, Pipeline.Asap d16);
    ("sparsify,asap{d=16},slack{max=8}", W.Other, Pipeline.Asap d16);
    ("sparsify,fold,licm,unroll{f=2}", W.Other, Pipeline.Baseline) ]

let formats =
  [ ("csr", Encoding.csr ()); ("csc", Encoding.csc ());
    ("dcsr", Encoding.dcsr ()); ("coo", Encoding.coo ());
    ("bsr2x2", Encoding.bsr ~bh:2 ~bw:2 ()) ]

let small_kernels ~seed ~smoke =
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let rng = Rng.create seed in
  let n_matrices = if smoke then 1 else 8 in
  (* Sizes are fixed, 64 to 232 rows, so every seed does the same amount
     of work; the seed draws the structure. *)
  let families =
    [| (fun r -> Printf.sprintf "uniform:%d,%d" r (4 * r));
       Printf.sprintf "powerlaw:%d,4";
       Printf.sprintf "banded:%d,3";
       Printf.sprintf "road:%d,3" |]
  in
  let cells = ref [] in
  for m = 0 to n_matrices - 1 do
    let rows = if smoke then 32 else 64 + (24 * m) in
    let mseed = Rng.int rng 1_000_000 in
    let family = families.(m mod Array.length families) in
    let coo = matrix (Printf.sprintf "%s@%d" (family rows) mseed) in
    let side = 8 + (rows / 16) in
    let t3 =
      matrix
        (Printf.sprintf "tensor3:%d,%d,%d,%d@%d" side side side (4 * rows)
           mseed)
    in
    let kernels =
      List.concat_map
        (fun (fname, enc) ->
          [ ("spmv", fname, Driver.Spmv enc, coo);
            ("spmm", fname, Driver.Spmm enc, coo);
            ("sddmm", fname, Driver.Sddmm enc, coo) ])
        formats
      @ [ ("ttv", "csf", Driver.Ttv (Some (Encoding.csf 3)), t3) ]
    in
    List.iter
      (fun (kname, fname, spec, coo) ->
        List.iter
          (fun specialize ->
            List.iter
              (fun (pipeline, role, variant) ->
                cells :=
                  cell
                    ~group:
                      (Printf.sprintf "%d/%s/%s/%b" m kname fname specialize)
                    ~role ~machine ~pipeline ~specialize ~variant spec coo
                  :: !cells)
              pipelines)
          [ false; true ])
      kernels
  done;
  make ~plain:Kernel_op.run_prep (List.rev !cells)
