(** Runtime binding: matching a compiled function's parameters to packed
    sparse storage, dense operands and dimension extents. *)

module Storage = Asap_tensor.Storage
module Emitter = Asap_sparsifier.Emitter
module Runtime = Asap_sim.Runtime
open Asap_ir

(** [storage_bufs c st ~binary ~dense] resolves every buffer parameter of
    [c]: pos/crd/vals from [st], dense operands from the association list
    (operand name -> runtime buffer).
    @raise Invalid_argument on missing bindings. *)
val storage_bufs :
  Emitter.compiled -> Storage.t -> binary:bool ->
  dense:(string * Runtime.rbuf) list -> (Ir.buffer * Runtime.rbuf) list

(** [scalar_args c ~extents] is the scalar argument list (iteration-space
    extents) in parameter order. *)
val scalar_args : Emitter.compiled -> extents:int array -> int list
