(** Sparsification driver: kernel -> verified imperative IR.

    Thin wrapper over {!Emitter.compile} that always runs the IR verifier,
    so every compilation path produces well-formed functions. *)

module Kernel = Asap_lang.Kernel

type t = Emitter.compiled

(** [run ?hook k] sparsifies kernel [k]; [hook] is the prefetch
    injection point (see {!Access.hook}).
    @raise Emitter.Unsupported on level chains outside the supported
    dialect subset.
    @raise Invalid_argument if generated IR fails verification (a bug). *)
val run : ?hook:Access.hook -> Kernel.t -> t

(** [listing c] is the MLIR-flavoured text of the generated function. *)
val listing : t -> string
