(** Sparsification: lowering a kernel over a sparse encoding to imperative
    IR (paper §2.4 and §3.1).

    The emitter walks the sparse operand's storage levels in
    iteration-graph order, generating one loop per level: dense levels
    become counted loops, compressed levels position loops, the COO pair
    (compressed non-unique over singleton) the while/dedup structure of
    Fig. 3a. Remaining dense-only dimensions (SpMM's k) become innermost
    loops. When a position loop materialises a coordinate that indirectly
    indexes a dense operand — the iterate-and-locate co-iteration of
    Fig. 4c — the emitter calls the prefetch hook with the full semantic
    context ({!Access.site}). *)

module Kernel = Asap_lang.Kernel
open Asap_ir

(** How each buffer parameter of the generated function must be bound at
    run time, in parameter order. *)
type binding =
  | Bpos of int                (** positions buffer of storage level l *)
  | Bcrd of int                (** coordinates buffer of storage level l *)
  | Bvals                      (** values buffer of the sparse operand *)
  | Bdense of string           (** dense operand, by kernel operand name *)

type compiled = {
  fn : Ir.func;
  kernel : Kernel.t;
  buffers : (Ir.buffer * binding) list;
  scalars : (Ir.value * int) list; (** scalar param -> iteration dim extent *)
  n_sites : int;                   (** indirect-access sites encountered *)
}

(** Raised on level chains outside the supported dialect subset (e.g.
    non-unique compressed below the top level). *)
exception Unsupported of string

(** [compile ?hook k] lowers [k] to a function named
    [<kernel>_<format>]. Prefer {!Sparsify.run}, which also verifies
    the result. *)
val compile : ?hook:Access.hook -> Kernel.t -> compiled
