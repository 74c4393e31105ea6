(** Reference kernel implementations over the COO exchange form.

    Plain OCaml, no IR, no simulator: the ground truth the interpreted
    sparsified code is checked against. *)

module Coo = Asap_tensor.Coo

(** [spmv coo c] computes a = B c.
    @raise Invalid_argument on shape mismatch. *)
val spmv : Coo.t -> float array -> float array

(** [spmm coo cm ~n] computes A = B C with row-major C of [n] columns. *)
val spmm : Coo.t -> float array -> n:int -> float array

(** [sddmm coo am bm ~kk] computes the sampled dense-dense product
    O(i,j) = S(i,j) * sum_k A(i,k) * B(k,j) with row-major A (rows x kk)
    and B (kk x cols). The result holds S's sampling pattern only: one
    value per distinct coordinate of S, in row-major order — the
    positions {!Coo.positions} lists — so it never allocates rows x cols.
    @raise Invalid_argument on shape mismatch. *)
val sddmm : Coo.t -> float array -> float array -> kk:int -> float array

(** [ttv coo c] computes the rank-3 contraction a(i,j) = B(i,j,k) c(k),
    row-major over (i, j). *)
val ttv : Coo.t -> float array -> float array

(** Boolean SpMV for binary matrices: a_i |= B_ij & c_j (paper §4.2). *)
val spmv_binary : Coo.t -> int array -> int array

(** Boolean SpMM. *)
val spmm_binary : Coo.t -> int array -> n:int -> int array
