(** Summary statistics for performance results.

    The paper summarises throughputs with the harmonic mean and reports
    Equal-Work harmonic-mean Speedups (EWS, Eeckhout 2024): the ratio of
    harmonic means of throughputs, which weighs the work done on each
    input equally — unlike the geometric mean (paper §5). *)

(** Arithmetic mean. @raise Invalid_argument on empty input. *)
val mean : float array -> float

(** Harmonic mean. @raise Invalid_argument on empty or non-positive
    input. *)
val harmonic_mean : float array -> float

(** Geometric mean (for comparison only; see the paper's §5 argument
    against it). *)
val geometric_mean : float array -> float

(** [ews ~base ~variant] is the equal-work harmonic-mean speedup of
    [variant] over [base], both throughputs over the same inputs. *)
val ews : base:float array -> variant:float array -> float

(** Coefficient of variation (the paper's §4.2 stability criterion). *)
val cov : float array -> float
