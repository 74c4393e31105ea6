(* End-to-end experiment driver: COO matrix in, PMU report and kernel
   output out. This is the API the examples and the benchmark harness
   use. *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Encoding = Asap_tensor.Encoding
module Kernel = Asap_lang.Kernel
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

(* One row per kernel family: everything {!Prep.make} needs beyond the
   configuration — the kernel, its iteration-space extents, its dense
   inputs and output (name, length), whether it runs the i8 and/or body,
   and how many dense-outer-loop slices it runs on. *)
type row = {
  r_kernel : Kernel.t;
  r_extents : int array;
  r_inputs : (string * int) list;
  r_output : string * int;
  r_binary : bool;
  r_threads : int;
}

(* SDDMM samples a dense product: O(i,j) = S(i,j) * sum_k A(i,k)*B(k,j);
   [cfg.n] is its contraction depth kk (default 8, as for SpMM's dense
   columns). SDDMM and TTV only have numeric bodies — the binary flag is
   ignored — and TTV has no parallel path: the paper only evaluates it
   single-threaded, so its row pins threads to 1. *)
let row (cfg : Cfg.t) (spec : kernel_spec) (coo : Coo.t) : row =
  let d = coo.Coo.dims and binary = cfg.Cfg.binary in
  let body = if binary then Kernel.And_or else Kernel.Mul_add in
  let n default = Option.value cfg.Cfg.n ~default in
  let mk ?(binary = binary) ?(threads = cfg.Cfg.threads) kernel extents
      inputs output =
    { r_kernel = kernel; r_extents = extents; r_inputs = inputs;
      r_output = output; r_binary = binary; r_threads = threads }
  in
  match spec with
  | Spmv enc ->
    mk (Kernel.spmv ~enc ~body ()) [| d.(0); d.(1) |] [ ("c", d.(1)) ]
      ("a", d.(0))
  | Spmm enc ->
    let n = n (if binary then 64 else 8) in
    mk (Kernel.spmm ~enc ~body ()) [| d.(0); d.(1); n |]
      [ ("C", d.(1) * n) ] ("A", d.(0) * n)
  | Sddmm enc ->
    let kk = n 8 in
    mk ~binary:false (Kernel.sddmm ~enc ()) [| d.(0); d.(1); kk |]
      [ ("A", d.(0) * kk); ("C", kk * d.(1)) ] ("O", d.(0) * d.(1))
  | Ttv enc ->
    mk ~binary:false ~threads:1 (Kernel.ttv ?enc ()) [| d.(0); d.(1); d.(2) |]
      [ ("c", d.(2)) ] ("a", d.(0) * d.(1))

(** A prepared kernel execution: sparsification, prefetch injection,
    specialization, storage packing, buffer layout and (bytecode engine)
    program assembly all done once by {!Prep.make}; {!Prep.exec} then
    re-runs the kernel on a fresh memory hierarchy per call. This is the
    only execution path — {!run} is one [make] plus one [exec]. *)
module Prep = struct
  type t = {
    p_obs : Asap_obs.Sink.t;
    p_prepared : Exec.prepared;
    p_scalars : int list;
    p_threads : int;
    p_outer_extent : int;
    p_nnz : int;
    p_out_f : float array option;
    p_out_b : Bytes.t option;
    mutable p_written : bool;
      (* the outputs may hold a run's results: [make] allocates them
         zeroed, so the first [exec] skips the zeroing *)
  }

  let make (cfg : Cfg.t) (spec : kernel_spec) (coo : Coo.t) : t =
    let r = row cfg spec coo in
    let enc = r.r_kernel.Kernel.k_encoding in
    if r.r_threads > 1 && enc.Encoding.levels.(0) <> Encoding.Dense then
      invalid_arg
        "Driver: dense-outer-loop parallelisation needs a dense top level";
    let compiled =
      Pipeline.compile ?pipeline:cfg.Cfg.pipeline r.r_kernel cfg.Cfg.variant
    in
    let cc = compiled.Pipeline.cc in
    let st =
      match cfg.Cfg.st with Some st -> st | None -> Storage.pack enc coo
    in
    let out_name, out_len = r.r_output in
    let out_f, out_b, out =
      if r.r_binary then
        let o = Bytes.make out_len '\000' in
        (None, Some o, Runtime.RB o)
      else
        let o = Array.make out_len 0. in
        (Some o, None, Runtime.RF o)
    in
    let input (name, len) =
      (name, if r.r_binary then Runtime.RB (dense_b len)
             else Runtime.RF (dense_f len))
    in
    let dense = List.map input r.r_inputs @ [ (out_name, out) ] in
    let bufs = Bindings.storage_bufs cc st ~binary:r.r_binary ~dense in
    let scalars = Bindings.scalar_args cc ~extents:r.r_extents in
    (* The specialization facts: the resolved scalar arguments (extents,
       inner extents, block shapes) and the variant's prefetch distance. *)
    let spec =
      if not cfg.Cfg.specialize then None
      else
        Some
          (Specialize.make ?distance:(variant_distance cfg.Cfg.variant)
             ~scalars ())
    in
    { p_obs = cfg.Cfg.obs;
      p_prepared =
        Exec.prepare ~engine:cfg.Cfg.engine ?spec cfg.Cfg.machine
          compiled.Pipeline.fn ~bufs;
      p_scalars = scalars; p_threads = r.r_threads;
      p_outer_extent = coo.Coo.dims.(0); p_nnz = Coo.nnz coo;
      p_out_f = out_f; p_out_b = out_b; p_written = false }

  (** [exec ?obs p] re-runs the prepared kernel; [obs] overrides the
      configuration's sink for this run only. The result's [out_f]/[out_b]
      alias [p]'s output buffers (zeroed before each run — the kernels
      accumulate into their outputs), so a result is only valid until the
      next [exec] on the same [p]. *)
  let exec ?obs (p : t) : result =
    let obs = Option.value obs ~default:p.p_obs in
    if p.p_written then begin
      Option.iter (fun o -> Array.fill o 0 (Array.length o) 0.) p.p_out_f;
      Option.iter (fun o -> Bytes.fill o 0 (Bytes.length o) '\000') p.p_out_b
    end;
    p.p_written <- true;
    let report =
      if p.p_threads <= 1 then
        Exec.run_prepared ~obs p.p_prepared ~scalars:p.p_scalars
      else
        Exec.run_parallel ~obs p.p_prepared ~threads:p.p_threads
          ~outer_extent:p.p_outer_extent ~scalars:p.p_scalars
    in
    mk_result report p.p_nnz p.p_out_f p.p_out_b
end

(** [run cfg spec coo] is the entry point: execute the kernel named by
    [spec] on [coo] under configuration [cfg]. *)
let run (cfg : Cfg.t) (spec : kernel_spec) (coo : Coo.t) : result =
  Prep.exec (Prep.make cfg spec coo)

module Merge = Asap_sparsifier.Merge

(* The merge runner shared by {!vector_ewise} and {!matrix_ewise}: pack
   both operands under [enc], bind [m]'s parameters to them and to a
   dense output spanning [extents], and run once. *)
let run_merge ~engine machine (m : Merge.compiled) enc ~extents (b : Coo.t)
    (c : Coo.t) : result =
  let stb = Storage.pack enc b and stc = Storage.pack enc c in
  let out = Array.make (Array.fold_left ( * ) 1 extents) 0. in
  let bufs =
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
  in
  let scalars = List.map (fun (_, d) -> extents.(d)) m.Merge.m_scalars in
  let report = Exec.run ~engine machine m.Merge.m_fn ~bufs ~scalars in
  mk_result report (Coo.nnz b + Coo.nnz c) (Some out) None

(** [vector_ewise machine op b c] merges two sparse vectors element-wise
    (union add or intersection multiply) into a dense output — the
    merge-based co-iteration strategy of §3.1. *)
let vector_ewise ?(engine = Exec.default_engine) (machine : Machine.t)
    (op : Merge.op) (b : Coo.t) (c : Coo.t) : result =
  if Coo.rank b <> 1 || Coo.rank c <> 1 || b.Coo.dims.(0) <> c.Coo.dims.(0)
  then invalid_arg "Driver.vector_ewise: need equal-length sparse vectors";
  run_merge ~engine machine (Merge.vector_ewise op) (Encoding.sparse_vector ())
    ~extents:b.Coo.dims b c

(** [matrix_ewise machine op b c] merges two CSR matrices row by row into
    a dense row-major output. *)
let matrix_ewise ?(engine = Exec.default_engine) (machine : Machine.t)
    (op : Merge.op) (b : Coo.t) (c : Coo.t) : result =
  if Coo.rank b <> 2 || b.Coo.dims <> c.Coo.dims then
    invalid_arg "Driver.matrix_ewise: need same-shape matrices";
  run_merge ~engine machine (Merge.matrix_ewise op) (Encoding.csr ())
    ~extents:b.Coo.dims b c

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
