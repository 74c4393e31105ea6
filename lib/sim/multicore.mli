(** Multi-core simulation via effect handlers.

    Each core interprets its slice of the kernel as a fiber that performs
    an effect at every memory event; the scheduler always resumes the fiber
    whose next event is earliest in simulated time, so cores interleave
    deterministically on the shared L2/L3/DRAM resources. This replaces the
    paper's OpenMP dense-outer-loop execution (§4.3). *)

(** [run ?engine machine hier fn ~bufs ~scalars ~slices] executes one
    copy of [fn] per slice (static row partitioning), interleaving their
    memory events on the shared hierarchy [hier]. Returns per-core
    results. [engine] selects the tree-walking interpreter or the
    flat-bytecode engine (default [`Bytecode]; both agree cycle-exactly —
    with bytecode the function is compiled once and shared by all
    fibers). *)
val run :
  ?engine:[ `Interp | `Bytecode ] ->
  Machine.t -> Hierarchy.t -> Asap_ir.Ir.func -> bufs:Runtime.bound array ->
  scalars:int list -> slices:(int * int) array -> Interp.result array
