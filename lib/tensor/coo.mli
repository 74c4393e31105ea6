(** Coordinate-list (COO) exchange form.

    The unsorted element list every other representation is built from:
    generators and Matrix Market readers produce it, {!Storage.pack}
    consumes it. Coordinates are structure-of-arrays — one nnz-length
    int array per dimension — so no per-element tuple is ever boxed. *)

type t = {
  dims : int array;        (** tensor shape, one extent per dimension *)
  crd : int array array;   (** [crd.(d).(k)] is the dimension-[d]
                               coordinate of non-zero [k]; one array per
                               dimension, each of length [nnz] *)
  vals : float array;      (** value of each stored entry *)
}

(** [rank t] is the number of dimensions. *)
val rank : t -> int

(** [nnz t] is the number of stored entries (duplicates included). *)
val nnz : t -> int

(** [create ~dims ~crd ~vals] validates shapes and bounds: one [crd]
    array per dimension, each as long as [vals], every coordinate within
    its extent.
    @raise Invalid_argument on rank, length or bound violations. *)
val create : dims:int array -> crd:int array array -> vals:float array -> t

(** [of_triples ~rows ~cols triples] builds a matrix from [(i, j, v)]
    triples. *)
val of_triples : rows:int -> cols:int -> (int * int * float) list -> t

(** [sorted_dedup ?perm t] is a copy of [t] sorted lexicographically by the
    (optionally permuted) dimension order with duplicate coordinates summed
    — the canonical form sparsification's [sorted = true] expects.
    Sort-key position [l] is dimension [perm.(l)] (identity by default).

    The sort is a stable LSD counting/radix sort, one or more counting
    passes per level, least significant level first: O(nnz) per pass,
    with bucket counts bounded by both the extent and nnz. Stability is
    the contract: elements are ordered by key and then by original
    index, so each duplicate group is summed from [0.] in original
    element order, bit for bit. *)
val sorted_dedup : ?perm:int array -> t -> t

(** [positions t] is the sorted array of the distinct row-major dense
    positions [i * cols + j] of a matrix's stored entries: the sampling
    pattern of an SDDMM over [t]. O(nnz) time and space, none of it of
    dense size.
    @raise Invalid_argument if [t] is not a matrix. *)
val positions : t -> int array

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
