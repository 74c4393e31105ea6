(** End-to-end experiment driver: COO matrix in, PMU report and verified
    kernel output out. This is the API the examples, the CLI and the
    benchmark harness use. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec

type result = {
  report : Exec.report;
  counters : (string * int) list;
    (** the report's counter registry, sorted by name
        ({!Exec.Report.to_assoc}) *)
  nnz : int;
  out_f : float array option;
    (** output of numeric kernels: the dense row-major output, except
        for SDDMM, whose output has S's sampling pattern — one value per
        distinct coordinate of S, in row-major order
        ({!Asap_tensor.Coo.positions}), the same form
        {!Reference.sddmm} returns *)
  out_b : Bytes.t option;      (** output of binary kernels *)
}

(** [throughput r] is work throughput in non-zeros per millisecond (the
    paper's §5 metric). *)
val throughput : result -> float

(** [mpki r] is L2 misses per kilo-instruction. *)
val mpki : result -> float

(** Run configuration: everything about {e how} to execute a kernel —
    machine, code variant, engine, parallelism, operand flavour and
    observability sink — leaving {!run} to say {e what} to execute. *)
module Cfg : sig
  type t = {
    machine : Machine.t;
    variant : Pipeline.variant;
    engine : Exec.engine;
    threads : int;                       (** dense-outer-loop slices *)
    binary : bool;                       (** i8 and/or kernels *)
    n : int option;                      (** SpMM dense columns *)
    st : Asap_tensor.Storage.t option;   (** shared pre-packed storage *)
    obs : Asap_obs.Sink.t;               (** event sink (default: off) *)
    pipeline : string option;
      (** pass-pipeline spec overriding [variant]'s default
          (see {!Pipeline.compile}) *)
    specialize : bool;
      (** rewrite the post-pipeline function against the resolved
          runtime facts (extents, inner extents, tuned distance) before
          executing — see {!Asap_sim.Specialize}; value- and
          report-exact vs the generic form across engines, faster in
          virtual cycles *)
  }

  (** [make ~machine ~variant ()] with defaults: [Exec.default_engine],
      one thread, numeric kernels, kernel-specific [n], fresh packing, no
      observability, no pipeline override, no specialization.
      [tune_mode] is accepted and ignored: tuning sits above Driver and
      a run configuration carries no tuning mode; the argument remains
      only until its last caller (the benchmark's serve build path)
      stops passing it. *)
  val make :
    ?engine:Exec.engine -> ?threads:int -> ?binary:bool -> ?n:int ->
    ?st:Asap_tensor.Storage.t -> ?obs:Asap_obs.Sink.t ->
    ?tune_mode:[ `Sweep | `Model | `Hybrid ] -> ?pipeline:string ->
    ?specialize:bool ->
    machine:Machine.t -> variant:Pipeline.variant -> unit -> t
end

(** [variant_distance v] is the prefetch distance [v] resolves to
    ([None] for [Baseline]) — the distance fact fed to the specializer. *)
val variant_distance : Pipeline.variant -> int option

(** What to execute: the kernel family and the sparse encoding of its
    tensor operand ([Ttv None] defaults to rank-3 CSF). *)
type kernel_spec =
  | Spmv of Encoding.t
  | Spmm of Encoding.t
  | Sddmm of Encoding.t
  | Ttv of Encoding.t option

(** [run cfg spec coo] is the entry point: execute the kernel named by
    [spec] on [coo] under configuration [cfg]. [cfg.engine] selects the
    simulator's execution engine; [cfg.threads > 1] uses the
    dense-outer-loop parallelisation (requires a dense top level; TTV
    always runs single-threaded). [cfg.n] is SpMM's dense column count —
    by default one cache line per dense row, 8 f64 or 64 i8 columns
    (paper §5.2) — and SDDMM's contraction depth (default 8). [cfg.st],
    if given, must be [Storage.pack enc coo] — callers running several
    variants over one matrix pass it to share the packing work. *)
val run : Cfg.t -> kernel_spec -> Coo.t -> result

(** A prepared kernel execution: sparsification, prefetch injection,
    specialization (when [cfg.specialize]), storage packing, buffer
    layout and (bytecode engine) program assembly all done once by
    {!Prep.make} into one {!Exec.prepared}; {!Prep.exec} then re-runs
    that program on a fresh memory hierarchy per call — on one core, or
    split over [cfg.threads] cores by {!Exec.run_parallel}. This is the
    only execution path: {!run} is [Prep.exec (Prep.make cfg spec coo)].
    It is also the unit the serve subsystem builds per cache entry. *)
module Prep : sig
  type t

  (** [make cfg spec coo] prepares the execution. SDDMM's output is
      bound as a pattern buffer ({!Asap_sim.Runtime.pattern}) over S's
      coordinates: its simulated layout is the dense d0 x d1 array, its
      host storage O(nnz).
      @raise Invalid_argument when [cfg.threads > 1] and the kernel's
      encoding has no dense top level (TTV always runs
      single-threaded). *)
  val make : Cfg.t -> kernel_spec -> Coo.t -> t

  (** [exec ?obs ?slice p] re-runs the prepared kernel; [obs] overrides
      the configuration's sink for this run only. [slice = (lo, hi)]
      restricts the outermost loop to iterations [lo, hi) (profile-guided
      tuning runs a leading slice of rows); [slice = (0, extent)] equals
      an unsliced run. The result's [out_f]/[out_b] alias [p]'s output
      buffers (zeroed before each run), so a result is only valid until
      the next [exec] on the same [p].
      @raise Invalid_argument when [slice] is given and [p] runs on more
      than one thread (the threads already split the outer loop). *)
  val exec : ?obs:Asap_obs.Sink.t -> ?slice:int * int -> t -> result
end

(** [check_ttv coo r] is the max absolute error of a TTV run. *)
val check_ttv : Coo.t -> result -> float

(** [check_spmv coo r] is the max absolute error against the dense
    reference (0 exact for binary kernels). *)
val check_spmv : Coo.t -> result -> float

(** [check_spmm coo ~n r] likewise for SpMM. *)
val check_spmm : Coo.t -> n:int -> result -> float

(** [check_sddmm coo ~kk r] is the max absolute error of an SDDMM run
    (contraction depth [kk]). [r.out_f] may hold the sampled values
    {!Prep} returns or a dense rows x cols array; in the dense form every
    element outside S's pattern counts as error against zero.
    @raise Invalid_argument when [r.out_f] has neither length. *)
val check_sddmm : Coo.t -> kk:int -> result -> float
