(** Flat-bytecode execution engine.

    Compiles an [Ir.func] bound to its runtime buffers into a flat
    [int array] instruction stream — one int-coded opcode per IR
    operation, with operand and register indices into unboxed
    [int array]/[float array] register files, buffer bases and bounds
    resolved to immediates — executed by a single tight dispatch loop.

    A drop-in for {!Interp.run}: same memory port,
    same result type, same timing model, same traps, faults and load-pc
    attribution — the engines agree cycle-exactly and value-exactly
    (enforced by the differential tests in [test/test_engine.ml]). *)

open Asap_ir

(** A compiled program: reusable across runs over the same buffer
    binding. Slices, scalars and the memory port bind at {!run} time. *)
type prog

(** [compile fn ~bufs] flattens [fn] over the bound buffer array (as
    produced by {!Runtime.layout}). Loops whose bounds are literal
    constants in [fn] (the dense loops {!Specialize} folds, the fixed
    BSR block loops) have them baked into the loop table: the bound
    reload and step trap vanish from loop entry, with the same timing
    events either way. *)
val compile : Ir.func -> bufs:Runtime.bound array -> prog

(** [run ?slice ?width ?rob_size ?branch_miss p ~scalars ~mem] executes
    a compiled program. Parameters and defaults are identical to
    {!Interp.run}.
    @raise Runtime.Fault on out-of-bounds demand accesses.
    @raise Interp.Trap on dynamic errors. *)
val run :
  ?slice:int * int -> ?width:int -> ?rob_size:int -> ?branch_miss:int ->
  prog -> scalars:int list -> mem:Interp.mem -> Interp.result
