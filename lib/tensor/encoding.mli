(** Sparse tensor encodings — the per-level storage description of MLIR's
    sparse_tensor dialect (paper §2.2, Fig. 1b).

    An encoding maps tensor dimensions to storage levels of the coordinate
    hierarchy tree. Each level is dense (all coordinates implicit),
    compressed (pos/crd buffer pair, optionally non-unique), or singleton
    (exactly one child per parent, crd buffer only). *)

type level_format =
  | Dense
  | Compressed of { unique : bool }
      (** [unique = false] retains duplicate parent coordinates, as in
          COO's top level. *)
  | Singleton

(** Width of the pos/crd integer elements (paper §4.2: 32-bit indices when
    the non-zero count permits, 64-bit otherwise). *)
type index_width = W32 | W64

type t = {
  name : string;               (** display name, e.g. "CSR" *)
  levels : level_format array; (** one per storage level *)
  dim_to_lvl : int array;      (** level [l] stores dimension [dim_to_lvl.(l)] *)
  width : index_width;
  block : (int * int) option;
      (** [Some (bh, bw)]: levels index the block coordinate space and each
          stored leaf carries [bh*bw] values (row-major within the block). *)
}

(** [rank t] is the number of storage levels (= tensor rank). *)
val rank : t -> int

val level_name : level_format -> string

(** [has_pos l] tells whether level format [l] needs a positions buffer. *)
val has_pos : level_format -> bool

(** [has_crd l] tells whether level format [l] needs a coordinates
    buffer. *)
val has_crd : level_format -> bool

(** [make ?width name levels dim_to_lvl] validates and builds an encoding.
    @raise Invalid_argument if [dim_to_lvl] is not a permutation or the
    first level is singleton. *)
val make : ?width:index_width -> string -> level_format array -> int array -> t

(** Coordinate list: compressed non-unique over singleton (Fig. 1b). *)
val coo : ?width:index_width -> unit -> t

(** Compressed sparse row: dense over compressed. *)
val csr : ?width:index_width -> unit -> t

(** Compressed sparse column: CSR with swapped dimension order. *)
val csc : ?width:index_width -> unit -> t

(** Doubly compressed sparse row: compressed over compressed. *)
val dcsr : ?width:index_width -> unit -> t

(** [bsr ~bh ~bw ()] is Block Sparse Row with [bh]x[bw] blocks: dense
    block rows over compressed block columns, each stored block holding
    [bh*bw] row-major values (explicit zeros inside a block; edge blocks
    are zero-padded and clamped at iteration time). *)
val bsr : ?width:index_width -> bh:int -> bw:int -> unit -> t

(** [block_elems t] is the number of values per stored leaf — [bh*bw]
    for blocked encodings, 1 otherwise. *)
val block_elems : t -> int

(** [csf r] is the rank-[r] compressed sparse fiber format (all levels
    compressed, identity dimension order). *)
val csf : ?width:index_width -> int -> t

(** [to_string t] renders the [#sparse_tensor.encoding] attribute in the
    style of Fig. 1b. *)
val to_string : t -> string
