(** The interpretable feature → prefetch-configuration cost model:
    a rollback knee (below [c_rollback_mpki] estimated MPKI the matrix
    is cache-resident and prefetching only adds overhead), a linear
    Fig. 6-style speedup estimate over estimated MPKI, and a two-rung
    distance ladder keyed on stored-element count. Coefficients are
    calibrated offline by [tools/fit_cost_model.ml]. *)

module Machine = Asap_sim.Machine
module Pipeline = Asap_core.Pipeline

type coeffs = {
  c_rollback_mpki : float;  (** roll back below this estimated MPKI *)
  c_intercept : float;      (** predicted speedup at MPKI → 0 *)
  c_slope : float;          (** predicted speedup gain per unit MPKI *)
  c_min_speedup : float;    (** choose ASaP only above this *)
  c_tiny_nnz : int;         (** stored-element count splitting the ladder *)
  c_dist_short : int;       (** distance for tiny matrices *)
  c_dist_long : int;        (** distance for everything else *)
}

(** Fitted values (see tools/fit_cost_model.ml). *)
val default : coeffs

type prediction = {
  p_variant : Pipeline.variant;
  p_speedup : float;        (** predicted ASaP speedup over baseline *)
  p_distance : int option;  (** [Some] iff ASaP was chosen *)
  p_reason : string;        (** one-line explanation, for logs *)
}

(** [predict machine f] maps features to a variant under the [default]
    coefficients. Pure and O(1): all the measurement happened in
    {!Features.extract}. *)
val predict : Machine.t -> Features.t -> prediction

(** [same_choice a b] — do two variants name the same code? Same
    constructor, and for ASaP the same distance (the only field tuning
    varies). Used for hybrid-mode agreement accounting. *)
val same_choice : Pipeline.variant -> Pipeline.variant -> bool

val describe : prediction -> string
