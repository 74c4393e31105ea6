(** Top-level execution drivers and the PMU-style report (paper §4.4). *)

open Asap_ir

(** One load site of the executed function, resolved from its pc (the
    load's Ir vid) to the buffer it reads and the source loop nest it sits
    in, with the misses attributed to it. *)
type op_miss = {
  om_pc : int;                 (** the load's Ir vid *)
  om_buf : string;             (** buffer read by the load *)
  om_loop : string;            (** loop-tag path, e.g. "rows/cols"; "top" *)
  om_depth : int;              (** loop nesting depth of the site *)
  om_l1_miss : int;
  om_l2_miss : int;
}

type report = {
  rp_machine : Machine.t;
  rp_threads : int;
  rp_cycles : int;             (** max over cores *)
  rp_instructions : int;       (** summed over cores *)
  rp_flops : int;
  rp_loads : int;
  rp_stores : int;
  rp_prefetch_instrs : int;
  rp_mem : Hierarchy.stats;
  rp_op_misses : op_miss list; (** pc-ascending, zero-miss sites omitted *)
}

(** The execution engine: the tree-walking interpreter ({!Interp}) or
    the flat-bytecode engine ({!Bytecode}).
    They are cycle-exact and value-exact drop-ins for each other
    (differential-tested), so the choice is purely a host-speed
    trade-off. *)
type engine = [ `Interp | `Bytecode ]

(** [`Bytecode] — the fastest engine is the default everywhere. *)
val default_engine : engine

(** Canonical engine names (["interp|bytecode"]), for option
    docs and error messages. *)
val valid_engines : string

(** Parses ["interp"] / ["bytecode"] (and close
    synonyms); [None] otherwise. *)
val engine_of_string : string -> engine option

val engine_to_string : engine -> string

(** A prepared execution: the simulated address layout and (for
    bytecode) the flat program, computed once by {!prepare} and
    reusable across {!run_prepared} and {!run_parallel} calls, so
    single- and multi-core runs execute the same program. The buffer
    binding is captured — re-running reads whatever the bound arrays
    contain at that moment — but the memory hierarchy is fresh per run,
    so repeat runs are independent simulations. This is the amortisation
    point the serve subsystem's compile cache stores. *)
type prepared

(** [prepare ?engine ?spec machine fn ~bufs] is the run-independent half
    of {!run}: layout plus (bytecode) program compilation.
    With [spec], the function is first rewritten by {!Specialize.apply}
    against those facts (works under any engine so the differential
    suite can cross-check the specialized IR). *)
val prepare :
  ?engine:engine -> ?spec:Specialize.facts -> Machine.t -> Ir.func ->
  bufs:(Ir.buffer * Runtime.rbuf) list -> prepared

(** [run_prepared ?obs ?slice p ~scalars] executes [p] on one core of a
    fresh memory hierarchy; equal in every report field to the {!run} it
    was prepared from. *)
val run_prepared :
  ?obs:Asap_obs.Sink.t -> ?slice:int * int -> prepared ->
  scalars:int list -> report

(** [run ?engine ?obs ?slice machine fn ~bufs ~scalars] executes [fn] on
    one core of a fresh memory hierarchy; [obs] receives the hierarchy's
    event stream (default: disabled, zero cost); [slice] restricts the
    outermost loop's iteration range (used by profile-guided tuning).
    Equivalent to [prepare] + [run_prepared]. *)
val run :
  ?engine:engine -> ?obs:Asap_obs.Sink.t -> ?slice:int * int -> Machine.t ->
  Ir.func -> bufs:(Ir.buffer * Runtime.rbuf) list -> scalars:int list -> report

(** [run_parallel ?obs p ~threads ~outer_extent ~scalars] executes [p]
    with the dense-outer-loop strategy: the outermost loop range
    [0, outer_extent) is split into [threads] contiguous slices, one per
    core, on a shared hierarchy ({!Multicore}).
    @raise Invalid_argument unless [1 <= threads <= cores]. *)
val run_parallel :
  ?obs:Asap_obs.Sink.t -> prepared -> threads:int -> outer_extent:int ->
  scalars:int list -> report

(** [l2_mpki r] is demand L2 misses per kilo-instruction. *)
val l2_mpki : report -> float

(** [throughput_nnz_per_ms r ~nnz] is the paper's work-throughput metric. *)
val throughput_nnz_per_ms : report -> nnz:int -> float

(** [gflops r] is attained FLOP rate at the simulated frequency. *)
val gflops : report -> float

(** [arithmetic_intensity r] is flops per DRAM byte moved (roofline x). *)
val arithmetic_intensity : report -> float

(** Stable accessors over {!report} plus the named-counter registry.
    Consumers should read reports through these rather than record fields:
    the functions are the compatibility surface, the record layout is not.
    The counter-name catalogue is documented in DESIGN.md §3c. *)
module Report : sig
  type t = report

  val machine : t -> Machine.t
  val threads : t -> int
  val cycles : t -> int
  val instructions : t -> int
  val flops : t -> int
  val loads : t -> int
  val stores : t -> int
  val prefetch_instrs : t -> int
  val mem : t -> Hierarchy.stats
  val op_misses : t -> op_miss list
  val demand_loads : t -> int
  val demand_stores : t -> int
  val l2_misses : t -> int
  val sw_issued : t -> int
  val sw_dropped : t -> int
  val sw_useful : t -> int

  (** [registry r] is every counter of the report under its stable dotted
      name (the DESIGN.md §3c catalogue: [core.*], [mem.*],
      [l1./l2./l3./dram.*], [pf.<slug>.*], [op.<buf>@<loop>.*]). *)
  val registry : t -> Asap_obs.Registry.t

  (** [to_assoc r] is the canonical export: counters sorted by name. *)
  val to_assoc : t -> (string * int) list

  (** [pp ppf r] prints the registry, one [name value] line per counter. *)
  val pp : Format.formatter -> t -> unit
end

(** [summary r] is a one-line textual digest. *)
val summary : report -> string
