(* One kernel execution, run either through the public entry points
   (Driver.run, or Driver.Prep.make + Prep.exec) or decomposed into one
   call per layer, each under its own span: Storage.pack,
   Pipeline.compile, Specialize.apply, Exec.prepare, Exec.run_prepared.
   Both forms return a Driver.result judged by the same oracle. *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Encoding = Asap_tensor.Encoding
module Kernel = Asap_lang.Kernel
module Runtime = Asap_sim.Runtime
module Exec = Asap_sim.Exec
module Specialize = Asap_sim.Specialize
module Driver = Asap_core.Driver
module Pipeline = Asap_core.Pipeline
module Bindings = Asap_core.Bindings

type t = {
  spec : Driver.kernel_spec;
  coo : Coo.t;
  cfg : Driver.Cfg.t;
}

(* SpMM dense columns and SDDMM contraction depth: Driver's default. *)
let dense_n (k : t) = Option.value k.cfg.Driver.Cfg.n ~default:8

(* Max absolute error against the dense reference. *)
let check (k : t) (r : Driver.result) : float =
  match k.spec with
  | Driver.Spmv _ -> Driver.check_spmv k.coo r
  | Driver.Spmm _ -> Driver.check_spmm k.coo ~n:(dense_n k) r
  | Driver.Sddmm _ -> Driver.check_sddmm k.coo ~kk:(dense_n k) r
  | Driver.Ttv _ -> Driver.check_ttv k.coo r

let run_driver (k : t) = Driver.run k.cfg k.spec k.coo
let run_prep (k : t) = Driver.Prep.exec (Driver.Prep.make k.cfg k.spec k.coo)

(* Dense operands hold Driver's values, so Driver.check_* judges a
   decomposed run exactly as it judges Driver.run. *)
let dense_f n = Array.init n (fun i -> 1.0 +. (float_of_int (i mod 97) /. 97.))

let encoding (k : t) =
  match k.spec with
  | Driver.Spmv enc | Driver.Spmm enc | Driver.Sddmm enc -> enc
  | Driver.Ttv enc -> Option.value enc ~default:(Encoding.csf 3)

(* [pack tr k] is Storage.pack under a span, counting packed non-zeros. *)
let pack tr (k : t) =
  Span.count tr "tensor.pack.nnz" (Coo.nnz k.coo);
  Span.span tr "tensor.pack" (fun () -> Storage.pack (encoding k) k.coo)

(* [traced tr k] is the decomposed run. [k.cfg.st], when given, is used
   instead of packing. Specialized runs call Specialize.apply once under
   its own span for its cost and statistics; Exec.prepare then
   specializes again internally, as Driver.Prep does. *)
let traced tr (k : t) : Driver.result =
  let cfg = k.cfg in
  let d = k.coo.Coo.dims in
  let enc = encoding k in
  let kernel, extents, inputs, (out_name, out_len) =
    match k.spec with
    | Driver.Spmv _ ->
      ( Kernel.spmv ~enc (), [| d.(0); d.(1) |], [ ("c", d.(1)) ],
        ("a", d.(0)) )
    | Driver.Spmm _ ->
      let n = dense_n k in
      ( Kernel.spmm ~enc (), [| d.(0); d.(1); n |], [ ("C", d.(1) * n) ],
        ("A", d.(0) * n) )
    | Driver.Sddmm _ ->
      let kk = dense_n k in
      ( Kernel.sddmm ~enc (), [| d.(0); d.(1); kk |],
        [ ("A", d.(0) * kk); ("C", kk * d.(1)) ],
        ("O", d.(0) * d.(1)) )
    | Driver.Ttv _ ->
      ( Kernel.ttv ~enc (), [| d.(0); d.(1); d.(2) |], [ ("c", d.(2)) ],
        ("a", d.(0) * d.(1)) )
  in
  let st = match cfg.Driver.Cfg.st with Some st -> st | None -> pack tr k in
  let compiled =
    Span.span tr "pipeline.compile" (fun () ->
        Pipeline.compile ?pipeline:cfg.Driver.Cfg.pipeline kernel
          cfg.Driver.Cfg.variant)
  in
  let fn = compiled.Pipeline.fn in
  let scalars = Bindings.scalar_args compiled.Pipeline.cc ~extents in
  let facts =
    if not cfg.Driver.Cfg.specialize then None
    else begin
      let facts =
        Specialize.make
          ?distance:(Driver.variant_distance cfg.Driver.Cfg.variant)
          ~scalars ()
      in
      let _, stats =
        Span.span tr "specialize.apply" (fun () -> Specialize.apply facts fn)
      in
      Span.count tr "specialize.unrolled" stats.Specialize.sp_unrolled;
      Some facts
    end
  in
  let out = Array.make out_len 0. in
  let prepared =
    Span.span tr "exec.prepare" (fun () ->
        let dense =
          (out_name, Runtime.RF out)
          :: List.map (fun (name, n) -> (name, Runtime.RF (dense_f n))) inputs
        in
        let bufs =
          Bindings.storage_bufs compiled.Pipeline.cc st ~binary:false ~dense
        in
        Exec.prepare ~engine:cfg.Driver.Cfg.engine ?spec:facts
          cfg.Driver.Cfg.machine fn ~bufs)
  in
  let report =
    Span.span tr "exec.run" (fun () -> Exec.run_prepared prepared ~scalars)
  in
  Span.count tr "exec.run.instructions" (Exec.Report.instructions report);
  { Driver.report; counters = Exec.Report.to_assoc report;
    nnz = Coo.nnz k.coo; out_f = Some out; out_b = None }
