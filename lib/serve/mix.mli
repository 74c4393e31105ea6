(** Synthetic serving traffic: Zipf hot/cold profile selection with
    exponential inter-arrival gaps, fully determined by an explicit
    seed. *)

module Tuning = Asap_core.Tuning

type profile = {
  p_kernel : Request.kernel;
  p_format : string;
  p_matrix : string;          (** {!Asap_workloads.Generate.of_spec} *)
  p_variant : Request.variant;
  p_tune_mode : Tuning.mode;
  p_specialize : bool;        (** request the AoT-specialized artefact *)
}

(** [profile matrix] with defaults: SpMV, csr, ASaP variant, sweep
    tuning, no specialization. *)
val profile :
  ?kernel:Request.kernel -> ?format:string -> ?variant:Request.variant ->
  ?tune_mode:Tuning.mode -> ?specialize:bool -> string -> profile

(** A 10-profile spread over the workload suite, hot head first (Zipf
    weight falls with list position). *)
val default_profiles : unit -> profile list

(** [hot_cold ~seed ~n profiles] draws [n] requests: profile [i] with
    Zipf weight [1/(i+1)^alpha] (default 1.2), arrivals spaced by
    exponential gaps of mean [mean_gap_ms] (default 0.05 virtual ms),
    ids ["r%05d"], on the default engine and the "optimized" machine
    (see {!Request.override} for other engines). [deadline_ms], if
    given, attaches that relative budget to every request. [tenants] is
    a weighted [(name, weight)] list each request's tenant is drawn
    from; with fewer than two tenants no RNG draw is consumed, so
    legacy (seed, n) traces stay byte-identical.
    @raise Invalid_argument on a non-positive tenant weight. *)
val hot_cold :
  ?alpha:float -> ?mean_gap_ms:float -> ?deadline_ms:float ->
  ?tenants:(string * float) list -> seed:int -> n:int -> profile list ->
  Request.t list

(** [update_stream ~seed ~n profiles] draws [n] streaming updates
    against the rank-2 matrices of [profiles] (uniform spec choice,
    exponential gaps of mean [mean_gap_ms], default 1 virtual ms; four
    uniform in-bounds deltas each), ids ["u%05d"]. Uses an RNG stream
    independent of {!hot_cold}'s, so pairing a request mix with an
    update stream never perturbs the requests.
    @raise Invalid_argument when no profile is rank-2 or on a bad
    spec. *)
val update_stream :
  ?mean_gap_ms:float -> seed:int -> n:int -> profile list ->
  Request.Update.t list
