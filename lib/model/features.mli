(** One-pass structural features of a sparse matrix — the cheap inputs
    the cost model predicts prefetch configurations from, replacing the
    candidate sweep's sliced simulations. O(nnz + rows + cols), two small
    allocations. The quantities mirror what the paper's evaluation plots
    against: segment-length distribution (§3.2.2) and an analytic
    L2-MPKI estimate for the irregular gather (Fig. 6/8 x-axis),
    computed over exactly the profiling slice {!Tuning.tune} measures. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine

type t = {
  f_rows : int;
  f_cols : int;
  f_nnz : int;
  f_row_mean : float;          (** nnz/row mean (inner segment length) *)
  f_row_cov : float;           (** coefficient of variation of row lengths *)
  f_row_max : int;
  f_empty_frac : float;        (** fraction of rows with no entries *)
  f_hist : int array;          (** log2 segment-length histogram (rows) *)
  f_tail_mass : float;         (** nnz fraction in rows > 4x mean length *)
  f_band_frac : float;         (** mean |col − diag| / cols; 0 = diagonal *)
  f_gather_bytes : int;        (** dense-operand footprint: cols × 8 *)
  f_stream_bytes : int;        (** pos+crd+vals bytes streamed once *)
  f_slice_nnz : int;           (** gather accesses in the profiling slice *)
  f_slice_lines : int;         (** distinct gather lines the slice touches *)
  f_l1_ratio : float;          (** touched gather footprint / L1 *)
  f_l2_ratio : float;          (** touched gather footprint / L2 *)
  f_l3_ratio : float;          (** touched gather footprint / L3 *)
  f_est_mpki : float;          (** analytic slice L2-MPKI of the gather *)
  f_block_elems : int;         (** values per stored leaf: bh*bw for blocked
                                   encodings, 1 otherwise *)
  f_block_fill : float;        (** nnz / stored values — the explicit-zero
                                   price of a blocked layout; 1.0 unblocked *)
  f_extract_cycles : int;      (** virtual cycles charged for extraction *)
}

(** [extract ~machine enc coo] computes the feature vector for a rank-2
    tensor (the same restriction as the sweep it replaces); [coo] need
    not be sorted or deduplicated. The slice estimate covers
    {!Tuning.profile_fraction} of the rows, so it mirrors the sweep's
    measurement exactly.
    @raise Invalid_argument on other ranks. *)
val extract : machine:Machine.t -> Encoding.t -> Coo.t -> t

(** Scalar features as a name/value list (histogram elided), for logs
    and the fit tool. *)
val to_assoc : t -> (string * float) list

val pp : Format.formatter -> t -> unit
