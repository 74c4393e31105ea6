(** Ahead-of-time kernel specialization (ROADMAP item 3).

    Rewrites a post-pipeline function against the runtime facts that are
    constant for a built artefact — scalar parameter values (dimension
    extents, dense inner extents, BSR block shapes) and the tuned
    prefetch distance — folding the constants through the body, fully
    unrolling small constant-trip loops, stripping prefetch hooks a zero
    distance makes dead, and sweeping the dead feeder arithmetic.

    The specialized function keeps the generic parameter signature (the
    bound scalar values are simply no longer read) and is re-verified.
    Its virtual timing legitimately improves on the generic function but
    stays identical across both engines, which the differential
    suite enforces; value results are bit-identical to the generic
    function (operation order is preserved). *)

open Asap_ir

type facts = {
  f_scalars : int list;     (** values for the [Pscalar] params, in order *)
  f_distance : int option;  (** tuned prefetch distance; [Some 0] strips *)
}

(** [make ?distance ~scalars ()] bundles the facts. Loops of constant
    trip count up to 32 are fully unrolled. *)
val make : ?distance:int -> scalars:int list -> unit -> facts

type stats = {
  sp_params : int;             (** scalar params materialised *)
  sp_folded : int;             (** constants folded (both passes) *)
  sp_clamps : int;             (** BSR edge clamps proven away (the
                                   extent-divisible-by-block-side case) *)
  sp_unrolled : int;           (** loops fully unrolled *)
  sp_iterations : int;         (** iterations expanded by the unroller *)
  sp_dce : int;                (** dead pure lets removed *)
  sp_prefetch_stripped : int;  (** prefetch hooks stripped *)
}

(** [fingerprint ~kernel ~format ~pipeline ~tuned ~shape] is the cache
    key of a specialized artefact: kernel x format x canonical pipeline
    spec x tuned config x shape class. Distinct shapes yield distinct
    keys, so streaming updates that change the shape class miss and
    rebuild. *)
val fingerprint :
  kernel:string -> format:string -> pipeline:string -> tuned:string ->
  shape:int array -> string

(** [apply facts fn] is the specialized function and what the rewrite
    did. Raises [Invalid_argument] if [facts.f_scalars] does not match
    the function's scalar parameter count or the rewrite breaks the IR
    (verifier-checked). *)
val apply : facts -> Ir.func -> Ir.func * stats
