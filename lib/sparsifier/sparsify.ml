(* Driver: kernel -> verified imperative IR.

   Thin wrapper over [Emitter.compile] that always runs the IR verifier, so
   that every compilation path in examples, tests and benches produces
   well-formed functions. *)

module Kernel = Asap_lang.Kernel
open Asap_ir

type t = Emitter.compiled

(** [run ?hook k] sparsifies kernel [k]; [hook] is the prefetch
    injection point (see {!Access.hook}). *)
let run ?hook (k : Kernel.t) : t =
  let compiled = Emitter.compile ?hook k in
  (match Verify.check_result compiled.Emitter.fn with
   | Ok () -> ()
   | Error m ->
     invalid_arg
       (Printf.sprintf "sparsify %s: generated ill-formed IR: %s"
          compiled.Emitter.fn.Ir.fn_name m));
  compiled

(** [listing c] is the MLIR-flavoured text of the generated function. *)
let listing (c : t) = Printer.to_string c.Emitter.fn
