(** Segmented buffer storage of coordinate hierarchy trees (paper §2.3).

    Node identity at level [l] is the index of the node among all level-[l]
    nodes, making the child relation purely arithmetic: dense children are
    [node * size + v], compressed children are the positions
    [pos.(node), pos.(node+1)), singleton children are [node] itself. *)

type level_storage =
  | Ldense of { lsize : int }
  | Lcompressed of { pos : int array; crd : int array; unique : bool }
  | Lsingleton of { crd : int array }

type t = {
  enc : Encoding.t;
  dims : int array;
  lvls : level_storage array;
  vals : float array;          (** one value per leaf node *)
}

(** [pack enc coo] sorts, deduplicates and serialises [coo] under [enc].

    Linear in nnz: {!Coo.sorted_dedup}'s radix sort in the encoding's
    level order, then one top-down sweep per level over the sorted
    elements. Blocked encodings sort by (block row, block column, offset
    in block), so stored blocks come out in order without a hash table.
    Duplicates are summed in original element order, so the result is
    bit-identical to a comparator-sorted pack.
    @raise Invalid_argument on rank mismatch. *)
val pack : Encoding.t -> Coo.t -> t

(** [iter f t] visits every stored leaf with its dimension-order
    coordinates. *)
val iter : (int array -> float -> unit) -> t -> unit

(** [to_coo t] recovers the COO form, dropping explicit zeros, in
    storage order (sorted, no duplicates). *)
val to_coo : t -> Coo.t

(** [convert enc t] re-packs [t] under a different encoding. *)
val convert : Encoding.t -> t -> t

(** [pos_buf t l] is level [l]'s positions buffer, if it has one. *)
val pos_buf : t -> int -> int array option

(** [crd_buf t l] is level [l]'s coordinates buffer, if it has one. *)
val crd_buf : t -> int -> int array option

(** Total bytes of the serialised form (pos + crd at the encoding's index
    width, values as f64). *)
val footprint_bytes : t -> int

(** [describe t] is a one-line human-readable summary. *)
val describe : t -> string
