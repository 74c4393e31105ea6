(** SplitMix64: a small, fast, deterministic PRNG.

    Benchmarks must be reproducible run to run, so all workload generation
    derives from explicit seeds rather than global randomness. *)

type t

val create : int -> t

(** [int t n] is uniform in [0, n). @raise Invalid_argument if [n <= 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [power_law t ~alpha ~x_min ~x_max] samples a discrete bounded Pareto
    value via inverse transform — row degrees of social/web graphs. *)
val power_law : t -> alpha:float -> x_min:int -> x_max:int -> int

(** [exponential t ~mean] samples a rounded exponential. *)
val exponential : t -> mean:float -> int
