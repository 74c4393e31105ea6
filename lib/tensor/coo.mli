(** Coordinate-list (COO) exchange form.

    The unsorted tuple list every other representation is built from:
    generators and Matrix Market readers produce it, {!Storage.pack}
    consumes it. *)

type t = {
  dims : int array;          (** tensor shape, one extent per dimension *)
  coords : int array array;  (** [coords.(k)] is the coordinate tuple of
                                 non-zero [k], in dimension order *)
  vals : float array;        (** value of each stored entry *)
}

(** [rank t] is the number of dimensions. *)
val rank : t -> int

(** [nnz t] is the number of stored entries (duplicates included). *)
val nnz : t -> int

(** [create ~dims ~coords ~vals] validates shapes and bounds.
    @raise Invalid_argument on rank or bound violations. *)
val create : dims:int array -> coords:int array array -> vals:float array -> t

(** [of_triples ~rows ~cols triples] builds a matrix from [(i, j, v)]
    triples. *)
val of_triples : rows:int -> cols:int -> (int * int * float) list -> t

(** [compare_perm perm a b] compares coordinate tuples lexicographically
    under a dimension permutation: sort-key position [l] is dimension
    [perm.(l)]. *)
val compare_perm : int array -> int array -> int array -> int

(** [sorted_dedup ?perm t] is a copy of [t] sorted lexicographically by the
    (optionally permuted) dimension order with duplicate coordinates summed
    — the canonical form sparsification's [sorted = true] expects. *)
val sorted_dedup : ?perm:int array -> t -> t

(** [to_dense t] materialises a row-major dense array of the full shape. *)
val to_dense : t -> float array

(** Structural statistics used by workload selection (paper §4.2). *)
type stats = {
  s_rows : int;
  s_cols : int;
  s_nnz : int;
  s_row_min : int;            (** fewest entries in any row *)
  s_row_max : int;            (** most entries in any row *)
  s_row_mean : float;
  s_footprint_bytes : int;    (** CSR bytes with 4-byte indices *)
}

(** [matrix_stats t] computes {!stats} for a rank-2 tensor.
    @raise Invalid_argument if [t] is not a matrix. *)
val matrix_stats : t -> stats
