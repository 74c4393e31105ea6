(** Pipeline resolution and execution.

    [resolve] validates a spec against the registry (unknown passes or
    parameters raise [Invalid_argument] quoting the offending spec
    substring) and fills parameter defaults; [compile] runs a resolved
    pipeline on a kernel; [canonical] renders the fully-parameterised
    form that serve fingerprints embed. *)

module Kernel = Asap_lang.Kernel
module Emitter = Asap_sparsifier.Emitter
module Registry = Asap_obs.Registry

(** One resolved pass instance: registration + full parameter bindings. *)
type rpass = { pass : Pass.t; args : Pass.params }

type resolved = rpass list

(** [resolve text] parses and validates [text].  Structural rules: at
    most one entry pass and it must come first; hook passes must
    directly follow the entry pass.
    @raise Invalid_argument on syntax errors, unknown passes/parameters,
    type mismatches, or structure violations — always quoting [text]. *)
val resolve : string -> resolved

(** Canonical textual form: every pass with its full parameter list in
    declared order.  [resolve (canonical rs)] resolves to [rs], and two
    pipelines are equivalent iff their canonical forms are equal. *)
val canonical : resolved -> string

(** [canonical_of_string text] = [canonical (resolve text)]. *)
val canonical_of_string : string -> string

type compiled = {
  cc : Emitter.compiled;  (** entry-pass output: layout and metadata *)
  fn : Asap_ir.Ir.func;   (** final function after the IR-pass tail *)
  sites : int;            (** prefetch sites instrumented *)
}

(** [compile ?registry rs k] runs pipeline [rs] on kernel [k]: the entry
    pass with the composed hook prefix, then the IR-pass tail.  When
    [registry] is given, records [pass.<name>.runs] / [.rewrites] /
    [.ns] counters per pass.
    @raise Invalid_argument if [rs] does not start with an entry pass. *)
val compile : ?registry:Registry.t -> resolved -> Kernel.t -> compiled
