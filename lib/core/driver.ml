(* End-to-end experiment driver: COO matrix in, PMU report and kernel
   output out. This is the API the examples and the benchmark harness
   use. *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Encoding = Asap_tensor.Encoding
module Kernel = Asap_lang.Kernel
module Emitter = Asap_sparsifier.Emitter
module Runtime = Asap_sim.Runtime
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Specialize = Asap_sim.Specialize

type result = {
  report : Exec.report;
  counters : (string * int) list;  (* Exec.Report.to_assoc of the report *)
  nnz : int;
  out_f : float array option;   (* numeric kernels *)
  out_b : Bytes.t option;       (* binary kernels *)
}

let mk_result report nnz out_f out_b =
  { report; counters = Exec.Report.to_assoc report; nnz; out_f; out_b }

let throughput r = Exec.throughput_nnz_per_ms r.report ~nnz:r.nnz
let mpki r = Exec.l2_mpki r.report

(** Run configuration: everything about {e how} to execute a kernel —
    machine, code variant, engine, parallelism, operand flavour and
    observability sink — leaving {!run} to say {e what} to execute.
    Build with {!Cfg.make}. *)
module Cfg = struct
  type t = {
    machine : Machine.t;
    variant : Pipeline.variant;
    engine : Exec.engine;
    threads : int;                       (* dense-outer-loop slices *)
    binary : bool;                       (* i8 and/or kernels *)
    n : int option;                      (* SpMM dense columns *)
    st : Storage.t option;               (* shared pre-packed storage *)
    obs : Asap_obs.Sink.t;               (* event sink (default: off) *)
    tune_mode : Tuning.mode;             (* how `Tuned decisions are made *)
    pipeline : string option;            (* pass-pipeline spec override *)
    specialize : bool;                   (* AoT-specialize before running *)
  }

  let make ?(engine = Exec.default_engine) ?(threads = 1) ?(binary = false)
      ?n ?st ?(obs = Asap_obs.Sink.null) ?(tune_mode = Tuning.default_mode)
      ?pipeline ?(specialize = false) ~machine ~variant () =
    { machine; variant; engine; threads; binary; n; st; obs; tune_mode;
      pipeline; specialize }
end

(* The prefetch distance a variant resolves to — a specialization fact
   ([Some 0] lets the specializer strip dead prefetch hooks). *)
let variant_distance = function
  | Pipeline.Baseline -> None
  | Pipeline.Asap (c : Asap_prefetch.Asap.config) ->
    Some c.Asap_prefetch.Asap.distance
  | Pipeline.Ainsworth_jones (c : Asap_prefetch.Ainsworth_jones.config) ->
    Some c.Asap_prefetch.Ainsworth_jones.distance

(** What to execute: the kernel family and the sparse encoding of its
    tensor operand ([Ttv None] defaults to rank-3 CSF). *)
type kernel_spec =
  | Spmv of Encoding.t
  | Spmm of Encoding.t
  | Sddmm of Encoding.t
  | Ttv of Encoding.t option

(* Deterministic dense operand contents (values are irrelevant to timing
   but must be varied enough for correctness checks). *)
let dense_f n = Array.init n (fun i -> 1.0 +. (float_of_int (i mod 97) /. 97.))
let dense_b n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set_uint8 b i ((i * 2654435761) lsr 7 land 1)
  done;
  b

let run_compiled ?spec ~engine ~obs (c : Pipeline.compiled) ~machine ~threads
    ~outer_extent ~bufs ~scalars =
  if threads <= 1 then
    Exec.run_prepared ~obs
      (Exec.prepare ~engine ?spec machine c.Pipeline.fn ~bufs)
      ~scalars
  else begin
    (match c.Pipeline.cc.Emitter.kernel.Kernel.k_encoding.Encoding.levels.(0)
     with
     | Encoding.Dense -> ()
     | Encoding.Compressed _ | Encoding.Singleton ->
       invalid_arg
         "Driver: dense-outer-loop parallelisation needs a dense top level");
    (* The parallel path specializes the IR only — the per-fiber engines
       compile it generically, which is value- and report-identical. *)
    let fn =
      match spec with
      | None -> c.Pipeline.fn
      | Some facts -> fst (Specialize.apply facts c.Pipeline.fn)
    in
    Exec.run_parallel ~engine ~obs machine ~threads ~outer_extent fn ~bufs
      ~scalars
  end

(* The kernel-specific assembly shared by {!run} and {!Prep}: sparsify +
   prefetch-inject, pack storage, allocate outputs, bind buffers, compute
   scalar arguments. Everything here is run-independent — {!Prep} does it
   once and re-executes many times. *)
type assembled = {
  a_nnz : int;
  a_compiled : Pipeline.compiled;
  a_bufs : (Asap_ir.Ir.buffer * Runtime.rbuf) list;
  a_scalars : int list;
  a_threads : int;
  a_outer_extent : int;
  a_out_f : float array option;
  a_out_b : Bytes.t option;
}

let assemble_spmv (cfg : Cfg.t) (enc : Encoding.t) (coo : Coo.t) : assembled =
  let binary = cfg.Cfg.binary in
  let rows = coo.Coo.dims.(0) and cols = coo.Coo.dims.(1) in
  let body = if binary then Kernel.And_or else Kernel.Mul_add in
  let kernel = Kernel.spmv ~enc ~body () in
  let compiled =
    Pipeline.compile ?pipeline:cfg.Cfg.pipeline kernel cfg.Cfg.variant
  in
  let st =
    match cfg.Cfg.st with Some st -> st | None -> Storage.pack enc coo
  in
  let out_f = if binary then None else Some (Array.make rows 0.) in
  let out_b = if binary then Some (Bytes.make rows '\000') else None in
  let dense =
    if binary then
      [ ("c", Runtime.RB (dense_b cols));
        ("a", Runtime.RB (Option.get out_b)) ]
    else
      [ ("c", Runtime.RF (dense_f cols));
        ("a", Runtime.RF (Option.get out_f)) ]
  in
  let bufs = Bindings.storage_bufs compiled.Pipeline.cc st ~binary ~dense in
  let scalars =
    Bindings.scalar_args compiled.Pipeline.cc ~extents:[| rows; cols |]
  in
  { a_nnz = Coo.nnz coo; a_compiled = compiled; a_bufs = bufs;
    a_scalars = scalars; a_threads = cfg.Cfg.threads; a_outer_extent = rows;
    a_out_f = out_f; a_out_b = out_b }

let assemble_spmm (cfg : Cfg.t) (enc : Encoding.t) (coo : Coo.t) : assembled =
  let binary = cfg.Cfg.binary in
  let rows = coo.Coo.dims.(0) and cols = coo.Coo.dims.(1) in
  let n =
    match cfg.Cfg.n with Some n -> n | None -> if binary then 64 else 8
  in
  let body = if binary then Kernel.And_or else Kernel.Mul_add in
  let kernel = Kernel.spmm ~enc ~body () in
  let compiled =
    Pipeline.compile ?pipeline:cfg.Cfg.pipeline kernel cfg.Cfg.variant
  in
  let st =
    match cfg.Cfg.st with Some st -> st | None -> Storage.pack enc coo
  in
  let out_f = if binary then None else Some (Array.make (rows * n) 0.) in
  let out_b = if binary then Some (Bytes.make (rows * n) '\000') else None in
  let dense =
    if binary then
      [ ("C", Runtime.RB (dense_b (cols * n)));
        ("A", Runtime.RB (Option.get out_b)) ]
    else
      [ ("C", Runtime.RF (dense_f (cols * n)));
        ("A", Runtime.RF (Option.get out_f)) ]
  in
  let bufs = Bindings.storage_bufs compiled.Pipeline.cc st ~binary ~dense in
  let scalars =
    Bindings.scalar_args compiled.Pipeline.cc ~extents:[| rows; cols; n |]
  in
  { a_nnz = Coo.nnz coo; a_compiled = compiled; a_bufs = bufs;
    a_scalars = scalars; a_threads = cfg.Cfg.threads; a_outer_extent = rows;
    a_out_f = out_f; a_out_b = out_b }

(* SDDMM samples a dense product: O(i,j) = S(i,j) * sum_k A(i,k)*B(k,j).
   [cfg.n] is the contraction depth kk (default 8, as for SpMM's dense
   columns). Only the numeric body is assembled — the binary flag is
   ignored, as for TTV. *)
let assemble_sddmm (cfg : Cfg.t) (enc : Encoding.t) (coo : Coo.t) :
    assembled =
  let rows = coo.Coo.dims.(0) and cols = coo.Coo.dims.(1) in
  let kk = match cfg.Cfg.n with Some n -> n | None -> 8 in
  let kernel = Kernel.sddmm ~enc () in
  let compiled =
    Pipeline.compile ?pipeline:cfg.Cfg.pipeline kernel cfg.Cfg.variant
  in
  let st =
    match cfg.Cfg.st with Some st -> st | None -> Storage.pack enc coo
  in
  let out = Array.make (rows * cols) 0. in
  let dense =
    [ ("A", Runtime.RF (dense_f (rows * kk)));
      ("C", Runtime.RF (dense_f (kk * cols)));
      ("O", Runtime.RF out) ]
  in
  let bufs =
    Bindings.storage_bufs compiled.Pipeline.cc st ~binary:false ~dense
  in
  let scalars =
    Bindings.scalar_args compiled.Pipeline.cc ~extents:[| rows; cols; kk |]
  in
  { a_nnz = Coo.nnz coo; a_compiled = compiled; a_bufs = bufs;
    a_scalars = scalars; a_threads = cfg.Cfg.threads; a_outer_extent = rows;
    a_out_f = Some out; a_out_b = None }

(* The specialization facts of an assembled kernel: its resolved scalar
   arguments (extents, inner extents, block shapes) and the variant's
   prefetch distance. [None] unless the configuration opts in. *)
let spec_facts (cfg : Cfg.t) (a : assembled) : Specialize.facts option =
  if not cfg.Cfg.specialize then None
  else
    Some
      (Specialize.make
         ?distance:(variant_distance cfg.Cfg.variant)
         ~scalars:a.a_scalars ())

let run_assembled (cfg : Cfg.t) (a : assembled) : result =
  let report =
    run_compiled ?spec:(spec_facts cfg a) ~engine:cfg.Cfg.engine
      ~obs:cfg.Cfg.obs a.a_compiled ~machine:cfg.Cfg.machine
      ~threads:a.a_threads ~outer_extent:a.a_outer_extent ~bufs:a.a_bufs
      ~scalars:a.a_scalars
  in
  mk_result report a.a_nnz a.a_out_f a.a_out_b

module Merge = Asap_sparsifier.Merge

(* Resolve a Merge compiled function's parameters against two packed
   storages and a dense output. *)
let merge_bufs (m : Merge.compiled) (stb : Storage.t) (stc : Storage.t) out =
  List.map
    (fun (buffer, binding) ->
      let st = function `B -> stb | `C -> stc in
      let data =
        match binding with
        | Merge.Mpos (side, l) ->
          Runtime.RI (Option.get (Storage.pos_buf (st side) l))
        | Merge.Mcrd (side, l) ->
          Runtime.RI (Option.get (Storage.crd_buf (st side) l))
        | Merge.Mvals side -> Runtime.RF (st side).Storage.vals
        | Merge.Mout -> Runtime.RF out
      in
      (buffer, data))
    m.Merge.m_buffers

(** [vector_ewise machine op b c] merges two sparse vectors element-wise
    (union add or intersection multiply) into a dense output — the
    merge-based co-iteration strategy of §3.1. *)
let vector_ewise ?(engine = Exec.default_engine) (machine : Machine.t)
    (op : Merge.op) (b : Coo.t) (c : Coo.t) : result =
  if Coo.rank b <> 1 || Coo.rank c <> 1 || b.Coo.dims.(0) <> c.Coo.dims.(0)
  then invalid_arg "Driver.vector_ewise: need equal-length sparse vectors";
  let n = b.Coo.dims.(0) in
  let enc = Encoding.sparse_vector () in
  let m = Merge.vector_ewise op in
  let stb = Storage.pack enc b and stc = Storage.pack enc c in
  let out = Array.make n 0. in
  let bufs = merge_bufs m stb stc out in
  let scalars = List.map (fun (_, d) -> [| n |].(d)) m.Merge.m_scalars in
  let report = Exec.run ~engine machine m.Merge.m_fn ~bufs ~scalars in
  mk_result report (Coo.nnz b + Coo.nnz c) (Some out) None

(** [matrix_ewise machine op b c] merges two CSR matrices row by row into
    a dense row-major output. *)
let matrix_ewise ?(engine = Exec.default_engine) (machine : Machine.t)
    (op : Merge.op) (b : Coo.t) (c : Coo.t) : result =
  if Coo.rank b <> 2 || b.Coo.dims <> c.Coo.dims then
    invalid_arg "Driver.matrix_ewise: need same-shape matrices";
  let rows = b.Coo.dims.(0) and cols = b.Coo.dims.(1) in
  let enc = Encoding.csr () in
  let m = Merge.matrix_ewise op in
  let stb = Storage.pack enc b and stc = Storage.pack enc c in
  let out = Array.make (rows * cols) 0. in
  let bufs = merge_bufs m stb stc out in
  let scalars =
    List.map (fun (_, d) -> [| rows; cols |].(d)) m.Merge.m_scalars
  in
  let report = Exec.run ~engine machine m.Merge.m_fn ~bufs ~scalars in
  mk_result report (Coo.nnz b + Coo.nnz c) (Some out) None

(* TTV has no parallel path: the paper only evaluates it single-threaded,
   so the assembly pins threads to 1 regardless of the configuration. *)
let assemble_ttv (cfg : Cfg.t) (enc : Encoding.t option) (coo : Coo.t) :
    assembled =
  let enc = match enc with Some e -> e | None -> Encoding.csf 3 in
  let di = coo.Coo.dims.(0) and dj = coo.Coo.dims.(1) and dk = coo.Coo.dims.(2) in
  let kernel = Kernel.ttv ~enc () in
  let compiled =
    Pipeline.compile ?pipeline:cfg.Cfg.pipeline kernel cfg.Cfg.variant
  in
  let st =
    match cfg.Cfg.st with Some st -> st | None -> Storage.pack enc coo
  in
  let out = Array.make (di * dj) 0. in
  let dense =
    [ ("c", Runtime.RF (dense_f dk)); ("a", Runtime.RF out) ]
  in
  let bufs = Bindings.storage_bufs compiled.Pipeline.cc st ~binary:false ~dense in
  let scalars =
    Bindings.scalar_args compiled.Pipeline.cc ~extents:[| di; dj; dk |]
  in
  { a_nnz = Coo.nnz coo; a_compiled = compiled; a_bufs = bufs;
    a_scalars = scalars; a_threads = 1; a_outer_extent = di;
    a_out_f = Some out; a_out_b = None }

let assemble (cfg : Cfg.t) (spec : kernel_spec) (coo : Coo.t) : assembled =
  match spec with
  | Spmv enc -> assemble_spmv cfg enc coo
  | Spmm enc -> assemble_spmm cfg enc coo
  | Sddmm enc -> assemble_sddmm cfg enc coo
  | Ttv enc -> assemble_ttv cfg enc coo

(** [run cfg spec coo] is the entry point: execute the kernel named by
    [spec] on [coo] under configuration [cfg]. *)
let run (cfg : Cfg.t) (spec : kernel_spec) (coo : Coo.t) : result =
  run_assembled cfg (assemble cfg spec coo)

(** A prepared kernel execution: sparsification, prefetch injection,
    storage packing, buffer layout and (bytecode engine) program
    assembly all done once by {!Prep.make}; {!Prep.exec} then re-runs the
    kernel on a fresh memory hierarchy per call. This is what the serve
    subsystem's compile cache stores — repeat requests for the same
    fingerprint skip straight to [exec]. *)
module Prep = struct
  type t = {
    p_cfg : Cfg.t;
    p_spec : kernel_spec;
    p_a : assembled;
    p_prepared : Exec.prepared option;   (* Some iff single-threaded *)
  }

  let make (cfg : Cfg.t) (spec : kernel_spec) (coo : Coo.t) : t =
    let a = assemble cfg spec coo in
    let prepared =
      if a.a_threads <= 1 then
        Some
          (Exec.prepare ~engine:cfg.Cfg.engine ?spec:(spec_facts cfg a)
             cfg.Cfg.machine a.a_compiled.Pipeline.fn ~bufs:a.a_bufs)
      else None
    in
    { p_cfg = cfg; p_spec = spec; p_a = a; p_prepared = prepared }

  let cfg p = p.p_cfg
  let spec p = p.p_spec
  let compiled p = p.p_a.a_compiled
  let nnz p = p.p_a.a_nnz

  (** [exec ?obs p] re-runs the prepared kernel; [obs] overrides the
      configuration's sink for this run only. The result's [out_f]/[out_b]
      alias [p]'s output buffers (zeroed before each run — the kernels
      accumulate into their outputs), so a result is only valid until the
      next [exec] on the same [p]. *)
  let exec ?obs (p : t) : result =
    let obs = match obs with Some s -> s | None -> p.p_cfg.Cfg.obs in
    let a = p.p_a in
    (match a.a_out_f with
     | Some o -> Array.fill o 0 (Array.length o) 0.
     | None -> ());
    (match a.a_out_b with
     | Some o -> Bytes.fill o 0 (Bytes.length o) '\000'
     | None -> ());
    let report =
      match p.p_prepared with
      | Some pr -> Exec.run_prepared ~obs pr ~scalars:a.a_scalars
      | None ->
        run_compiled ?spec:(spec_facts p.p_cfg a) ~engine:p.p_cfg.Cfg.engine
          ~obs a.a_compiled ~machine:p.p_cfg.Cfg.machine ~threads:a.a_threads
          ~outer_extent:a.a_outer_extent ~bufs:a.a_bufs ~scalars:a.a_scalars
    in
    mk_result report a.a_nnz a.a_out_f a.a_out_b
end

(* Max absolute elementwise error of a numeric output against its
   reference. *)
let max_abs_err (got : float array) (expect : float array) : float =
  let m = ref 0. in
  Array.iteri
    (fun i x ->
      let d = Float.abs (x -. expect.(i)) in
      if d > !m then m := d)
    got;
  !m

(* 0 when a binary output matches its reference bit for bit, 1 otherwise. *)
let binary_err (got : Bytes.t) (expect : int array) : float =
  let ok = ref true in
  Array.iteri (fun i e -> if Bytes.get_uint8 got i <> e then ok := false)
    expect;
  if !ok then 0. else 1.

(* The binary dense operand as the reference functions take it. *)
let dense_b_ints n =
  let cb = dense_b n in
  Array.init (Bytes.length cb) (Bytes.get_uint8 cb)

(** [check_ttv coo r] is the max absolute error of a TTV run against the
    reference. *)
let check_ttv (coo : Coo.t) (r : result) : float =
  match r.out_f with
  | None -> invalid_arg "check_ttv: binary TTV unsupported"
  | Some a -> max_abs_err a (Reference.ttv coo (dense_f coo.Coo.dims.(2)))

(** [check_spmv coo r] compares an SpMV result against the reference;
    returns the max absolute error (0 for binary matches). *)
let check_spmv (coo : Coo.t) (r : result) : float =
  let cols = coo.Coo.dims.(1) in
  match (r.out_f, r.out_b) with
  | Some a, _ -> max_abs_err a (Reference.spmv coo (dense_f cols))
  | None, Some b -> binary_err b (Reference.spmv_binary coo (dense_b_ints cols))
  | None, None -> assert false

(** [check_sddmm coo ~kk r] is the max absolute error of an SDDMM run
    against the reference (contraction depth [kk]). *)
let check_sddmm (coo : Coo.t) ~kk (r : result) : float =
  match r.out_f with
  | None -> invalid_arg "check_sddmm: binary SDDMM unsupported"
  | Some o ->
    let rows = coo.Coo.dims.(0) and cols = coo.Coo.dims.(1) in
    max_abs_err o
      (Reference.sddmm coo (dense_f (rows * kk)) (dense_f (kk * cols)) ~kk)

(** [check_spmm coo ~n r] likewise for SpMM. *)
let check_spmm (coo : Coo.t) ~n (r : result) : float =
  let len = coo.Coo.dims.(1) * n in
  match (r.out_f, r.out_b) with
  | Some a, _ -> max_abs_err a (Reference.spmm coo (dense_f len) ~n)
  | None, Some b ->
    binary_err b (Reference.spmm_binary coo (dense_b_ints len) ~n)
  | None, None -> assert false
