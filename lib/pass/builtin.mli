(** The built-in pass set.

    The standard passes are registered when this module is initialised,
    at program start and before any domain exists, so concurrent first
    lookups never observe a partial registry:

    - [sparsify] — the entry pass, kernel -> verified IR;
    - [asap] — ASaP prefetch-injection hook
      ([d], [l], [strategy], [bound], [step1]);
    - [aj] — Ainsworth-Jones post-hoc prefetch pass ([d], [l]);
    - [fold] — constant folding;
    - [licm] — loop-invariant code motion;
    - [unroll] — innermost-loop unrolling ([f]);
    - [slack] — prefetch-slack scheduling ([max]).

    Every entry point that consults the registry calls {!ensure}, so
    user code never needs to. *)

(** [ensure ()] does nothing at run time; referencing it keeps this
    module, and hence its registrations, linked. *)
val ensure : unit -> unit
