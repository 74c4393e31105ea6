(** Dense tensors: the non-annotated operands of a kernel (the vector c of
    SpMV, the matrices A and C of SpMM). Row-major. *)

type t = { dims : int array; data : float array }

val create : int array -> t

(** [init dims f] builds a rank-1 or rank-2 tensor from a coordinate
    function. *)
val init : int array -> (int array -> float) -> t

val get2 : t -> int -> int -> float
val set2 : t -> int -> int -> float -> unit
val copy : t -> t
val fill : t -> float -> unit

(** [max_abs_diff a b] is the largest elementwise difference.
    @raise Invalid_argument on shape mismatch. *)
val max_abs_diff : t -> t -> float
