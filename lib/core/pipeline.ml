(* Compilation pipeline: kernel + encoding + prefetch variant -> IR.

   Since PR 8 this is a thin wrapper over the registered pass pipeline
   (lib/pass): a variant denotes a canonical pipeline spec —

     Baseline          ->  "sparsify"
     Asap cfg          ->  "sparsify,asap{d=..,l=..,strategy=..,bound=..,step1=..}"
     Ainsworth_jones   ->  "sparsify,aj{d=..,l=..}"

   — and [compile] resolves and runs that spec through {!Asap_pass.Runner}.
   An explicit [?pipeline] spec overrides the variant's default, which is
   how per-tenant pipelines reach the driver from serve. *)

module Kernel = Asap_lang.Kernel
module Sparsify = Asap_sparsifier.Sparsify
module Emitter = Asap_sparsifier.Emitter
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Spec = Asap_pass.Spec
module Runner = Asap_pass.Runner
open Asap_ir

type variant =
  | Baseline
  | Asap of Asap.config
  | Ainsworth_jones of Aj.config

let variant_name = function
  | Baseline -> "baseline"
  | Asap _ -> "asap"
  | Ainsworth_jones _ -> "ainsworth-jones"

let strategy_sym = function
  | Asap.Innermost_only -> "inner"
  | Asap.Outer_only -> "outer"
  | Asap.Both -> "both"

let bound_sym = function
  | Asap.Semantic -> "semantic"
  | Asap.Segment_local -> "segment"

let spec_of_variant (variant : variant) : string =
  let entry = { Spec.pi_name = "sparsify"; pi_params = [] } in
  let prefetch =
    match variant with
    | Baseline -> []
    | Asap cfg ->
      [ { Spec.pi_name = "asap";
          pi_params =
            [ ("d", Spec.Vint cfg.Asap.distance);
              ("l", Spec.Vint cfg.Asap.locality);
              ("strategy", Spec.Vsym (strategy_sym cfg.Asap.strategy));
              ("bound", Spec.Vsym (bound_sym cfg.Asap.bound_mode));
              ("step1", Spec.Vsym (string_of_bool cfg.Asap.step1)) ] } ]
    | Ainsworth_jones cfg ->
      [ { Spec.pi_name = "aj";
          pi_params =
            [ ("d", Spec.Vint cfg.Aj.distance);
              ("l", Spec.Vint cfg.Aj.locality) ] } ]
  in
  Spec.to_string (entry :: prefetch)

type compiled = {
  cc : Emitter.compiled;        (* parameter layout and kernel metadata *)
  fn : Ir.func;                 (* final function (after the pass tail) *)
  variant : variant;
  n_prefetch_sites : int;       (* sites instrumented by the pipeline *)
}

let compile ?pipeline ?registry (k : Kernel.t) (variant : variant) :
    compiled =
  let spec =
    match pipeline with Some p -> p | None -> spec_of_variant variant
  in
  let rs = Runner.resolve spec in
  let r = Runner.compile ?registry rs k in
  { cc = r.Runner.cc; fn = r.Runner.fn; variant;
    n_prefetch_sites = r.Runner.sites }

let listing c = Printer.to_string c.fn
