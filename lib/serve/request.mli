(** The serving request model: one value naming everything needed to
    reproduce a kernel execution (kernel, format, matrix-by-spec,
    variant, engine, machine preset) plus scheduling metadata (id,
    virtual arrival time, optional latency budget). Travels as JSONL. *)

module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Driver = Asap_core.Driver
module Pipeline = Asap_core.Pipeline
module Jsonu = Asap_obs.Jsonu
module Tuning = Asap_core.Tuning

type kernel = [ `Spmv | `Spmm | `Sddmm | `Ttv ]

(** [`Tuned] defers the variant choice to profile-guided tuning at build
    time; the others name a fixed variant (default configurations). *)
type variant = [ `Baseline | `Asap | `Aj | `Tuned ]

(** A latency budget relative to arrival, in virtual time: milliseconds,
    or simulated cycles of the request's machine. *)
type deadline = Ms of float | Cycles of int

type t = {
  id : string;
  kernel : kernel;
  format : string;
      (** coo/csr/csc/dcsr/bsr[<bh>x<bw>] for the matrix kernels; csf
          for ttv *)
  matrix : string;          (** {!Asap_workloads.Generate.of_spec} string *)
  variant : variant;
  engine : Exec.engine;
  machine : string;         (** preset name, see {!machine_of} *)
  tune_mode : Tuning.mode;  (** how a [`Tuned] variant is decided *)
  pipeline : string option;
      (** explicit pass-pipeline spec; overrides [variant]'s default
          pipeline at build time and supersedes tuning *)
  tenant : string;          (** admission-quota accounting key *)
  arrival_ms : float;       (** virtual arrival time *)
  deadline : deadline option;
  specialize : bool;
      (** build and serve the ahead-of-time specialized artefact
          ({!Asap_sim.Specialize}); enters the fingerprint, so
          specialized and generic entries never share a cache slot *)
}

(** ["default"] — the tenant of requests that don't name one. *)
val default_tenant : string

(** [matrix_encoding_of_format fmt] is the rank-2 encoding [fmt] names:
    coo, csr, csc, dcsr, ["bsr"] (4x4 blocks) or ["bsr<bh>x<bw>"]. *)
val matrix_encoding_of_format : string -> Encoding.t option

(** [encoding_of_format k fmt] is the encoding named by [fmt] if it fits
    kernel [k]: a matrix format for the matrix kernels, csf for ttv. *)
val encoding_of_format : kernel -> string -> Encoding.t option

(** [spec r] is the {!Driver.kernel_spec} the request names.
    @raise Invalid_argument on a kernel/format mismatch. *)
val spec : t -> Driver.kernel_spec

(** [fixed_variant v] is the pipeline variant for non-[`Tuned] cases. *)
val fixed_variant : variant -> Pipeline.variant option

(** [machine_of r] resolves the machine preset ([default] / [optimized]
    / [optimized-spmm] over the scaled evaluation machine).
    @raise Invalid_argument on an unknown preset. *)
val machine_of : t -> Machine.t

(** [deadline_ms r machine] is the absolute virtual-time deadline
    (arrival + budget), if the request carries one. *)
val deadline_ms : t -> Machine.t -> float option

(** [fingerprint r] is the canonical cache key: every field affecting
    the built artefact and nothing that doesn't (id, tenant, arrival,
    deadline excluded; [tune_mode] included only for [`Tuned] requests,
    which are the only ones whose artefact it shapes).  The format and
    a pipeline override enter in canonical form — spellings that
    resolve to the same encoding (["bsr"], ["bsr4x4"]) or the same
    fully-parameterised pipeline share one cache entry, distinct ones
    never collide.
    @raise Invalid_argument if [pipeline] holds an invalid spec (JSONL
    ingest rejects those up front; only hand-built requests can). *)
val fingerprint : t -> string

(** [fallback r] is the degraded form a timed-out request is served as:
    the untuned, prefetch-free baseline (any pipeline override is
    dropped with the rest of the machinery it named). *)
val fallback : t -> t

(** [override ?engine ?tune_mode ?specialize ?pipelines r] is [r] with
    each given field replaced; [pipelines] maps tenants to pass-pipeline
    specs, and [r]'s tenant entry, if any, replaces its pipeline. With
    no arguments it is the identity. Overridden fields enter the
    fingerprint as if [r] had carried them. *)
val override :
  ?engine:Exec.engine -> ?tune_mode:Tuning.mode -> ?specialize:bool ->
  ?pipelines:(string * string) list -> t -> t

val to_json : t -> Jsonu.t

(** [to_line r] is the one-line JSONL form. *)
val to_line : t -> string

val of_line : string -> (t, string) result

(** [load path] reads a JSONL request file; blank and [#] lines are
    skipped; errors carry the 1-based line number. A [{"kind":
    "update"}] line is an error here — mixed streams go through
    {!load_items}. *)
val load : string -> (t list, string) result

(** Streaming updates: batched delta messages that mutate a matrix
    artefact mid-replay. Requests arriving at or after an update see
    the updated matrix; earlier arrivals keep the version they saw
    (arrival-time consistency), so a replay stays a pure function of
    the item stream. *)
module Update : sig
  type t = {
    u_id : string;
    u_matrix : string;  (** {!Asap_workloads.Generate.of_spec} string *)
    u_at_ms : float;    (** virtual fire time *)
    u_deltas : (int * int * float) array;
        (** each (i, j, v) sets entry (i, j) to v *)
  }

  val to_json : t -> Jsonu.t
  val to_line : t -> string

  (** [apply u coo] applies every delta (set semantics: existing
      entries replaced, fresh coordinates appended in delta order).
      @raise Invalid_argument on rank <> 2 or out-of-bounds deltas. *)
  val apply : t -> Asap_tensor.Coo.t -> Asap_tensor.Coo.t
end

(** One line of a mixed request/update stream. *)
type item = Req of t | Up of Update.t

val item_of_line : string -> (item, string) result

(** [load_items path] reads a mixed JSONL stream (requests plus
    [{"kind": "update", ...}] lines) in file order; blank and [#]
    lines are skipped; errors carry the 1-based line number. *)
val load_items : string -> (item list, string) result

(** [split_items items] separates requests from updates, each in
    stream order. *)
val split_items : item list -> t list * Update.t list
