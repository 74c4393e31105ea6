(** Flat-bytecode execution engine with superinstruction fusion.

    Compiles an [Ir.func] bound to its runtime buffers into a flat
    [int array] instruction stream — int-coded opcodes with operand and
    register indices into unboxed [int array]/[float array] register
    files, buffer bases and bounds resolved to immediates — executed by
    a single tight dispatch loop. Adjacent statements matching the
    shapes sparsification emits (crd/val load pairs, the gather-FMA
    inner-body tail, compressed pos-bounds pairs and full
    [load pos ; load pos ; for] headers) fuse into superinstructions:
    one dispatch, the identical sequence of per-instruction timing
    events.

    A drop-in for {!Interp.run}: same memory port,
    same result type, same timing model, same traps, faults and load-pc
    attribution — the engines agree cycle-exactly and value-exactly
    (enforced by the differential tests in [test/test_engine.ml]). *)

open Asap_ir

(** A compiled program: reusable across runs over the same buffer
    binding. Slices, scalars and the memory port bind at {!run} time. *)
type prog

(** [compile ?fuse fn ~bufs] flattens [fn] over the bound buffer
    array (as produced by {!Runtime.layout}). [fuse] (default [true])
    enables superinstruction fusion; disabling it emits one opcode per
    IR operation — the two forms agree cycle-for-cycle (fusion only
    batches dispatch, never timing events). Loops whose bounds are
    literal constants in [fn] (the dense loops {!Specialize} folds, the
    fixed BSR block loops) have them baked into the loop table: the
    bound reload and step trap vanish from loop entry, and the entry
    guard of a statically-taken non-top loop becomes a guard-free
    [FOR_KENTER] — the same timing events issue either way. *)
val compile : ?fuse:bool -> Ir.func -> bufs:Runtime.bound array -> prog

(** Number of superinstructions emitted (0 when compiled with
    [~fuse:false]); exposed for tests and diagnostics. *)
val fused_count : prog -> int

(** [run ?slice ?width ?rob_size ?branch_miss p ~scalars ~mem] executes
    a compiled program. Parameters and defaults are identical to
    {!Interp.run}.
    @raise Runtime.Fault on out-of-bounds demand accesses.
    @raise Interp.Trap on dynamic errors. *)
val run :
  ?slice:int * int -> ?width:int -> ?rob_size:int -> ?branch_miss:int ->
  prog -> scalars:int list -> mem:Interp.mem -> Interp.result
