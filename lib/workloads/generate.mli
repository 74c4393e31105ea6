(** Synthetic sparse matrix generators.

    Stand-ins for the SuiteSparse families the paper evaluates (§4.2): the
    benchmark shapes only depend on structural statistics — row-degree
    distribution, column locality (reuse distance of the dense operand)
    and footprint relative to the caches — which these generators control
    directly. All generation is deterministic in the seed. *)

module Coo = Asap_tensor.Coo

(** Uniform random positions — the worst case for locality (GAP-urand
    style). *)
val uniform : seed:int -> rows:int -> cols:int -> nnz:int -> unit -> Coo.t

(** Power-law graph adjacency (SNAP/LAW/GAP style): bounded-Pareto row
    degrees with exponent [alpha]; a fraction [locality] of columns is
    drawn near the diagonal (web-graph clustering). [max_deg_frac] caps the
    hub degree as a fraction of [cols]. *)
val power_law :
  seed:int -> rows:int -> cols:int -> avg_deg:int -> alpha:float ->
  ?locality:float -> ?max_deg_frac:float -> unit -> Coo.t

(** [band] diagonals around the main one — structured and cache-friendly. *)
val banded : seed:int -> n:int -> band:int -> unit -> Coo.t

(** 5-point 2-D stencil on a [side] x [side] grid. *)
val stencil_2d : seed:int -> side:int -> unit -> Coo.t

(** 7-point 3-D stencil on a [side]^3 grid. *)
val stencil_3d : seed:int -> side:int -> unit -> Coo.t

(** FEM-like block-banded matrix (Janna-collection style): dense
    [blk] x [blk] blocks within [reach] block-columns of the diagonal. *)
val fem_blocks :
  seed:int -> nblocks:int -> blk:int -> reach:int -> unit -> Coo.t

(** Road-network-like graph: constant small degree, strongly local columns
    with occasional long-range links (DIMACS10 street networks). *)
val road : seed:int -> n:int -> deg:int -> unit -> Coo.t

(** Uniform random rank-3 tensor (for CSF / tensor-times-vector runs). *)
val tensor3 : seed:int -> dims:int array -> nnz:int -> unit -> Coo.t

(** Heavy-tailed trace matrix (MAWI-style): [hubs] huge rows over a sea of
    tiny ones. *)
val heavy_tail :
  seed:int -> rows:int -> cols:int -> nnz:int -> hubs:int -> unit -> Coo.t

(** [of_spec s] builds the matrix named by a spec string of the form
    ["kind:arg,arg\[@seed\]"] (e.g. ["powerlaw:100000,8"],
    ["tensor3:64,64,64,20000@7"]; seed defaults to 1). Deterministic:
    equal specs name equal matrices — cache fingerprints rely on this. *)
val of_spec : string -> (Coo.t, string) result
