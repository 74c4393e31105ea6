(** Compilation pipeline: kernel + encoding + prefetch variant -> IR.

    A thin wrapper over the registered pass pipeline ({!Asap_pass}): the
    three §4.3 variants denote canonical pipeline specs, and an explicit
    spec can override them (the per-tenant pipeline path from serve). *)

module Kernel = Asap_lang.Kernel
module Emitter = Asap_sparsifier.Emitter
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
open Asap_ir

type variant =
  | Baseline                       (** sparsification only *)
  | Asap of Asap.config            (** ASaP hook during sparsification *)
  | Ainsworth_jones of Aj.config   (** post-hoc low-level pass *)

val variant_name : variant -> string

(** [spec_of_variant v] is the pipeline spec [compile] runs for [v]:
    ["sparsify"], ["sparsify,asap{..}"] or ["sparsify,aj{..}"]. *)
val spec_of_variant : variant -> string

type compiled = {
  cc : Emitter.compiled;       (** parameter layout and kernel metadata *)
  fn : Ir.func;                (** final function, pass tail applied *)
  variant : variant;
  n_prefetch_sites : int;      (** sites instrumented by the pipeline *)
}

(** [compile ?pipeline ?registry k variant] lowers kernel [k] through the
    variant's pipeline spec; the generated IR is always verified.
    [pipeline] overrides the variant's spec entirely (it must start with
    an entry pass, e.g. ["sparsify,asap{d=16},unroll{f=4},fold,licm"]).
    [registry] receives per-pass [pass.<name>.runs/.rewrites/.ns] counters.
    @raise Invalid_argument on an invalid [pipeline] spec. *)
val compile :
  ?pipeline:string -> ?registry:Asap_obs.Registry.t -> Kernel.t -> variant ->
  compiled

(** [listing c] is the MLIR-flavoured text of the final function. *)
val listing : compiled -> string
