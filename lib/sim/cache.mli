(** Set-associative cache tag store with LRU replacement.

    Only tags are modelled (data correctness is the interpreter's job).
    Each line remembers its provenance — demand fill or the id of the
    prefetcher that brought it in — so prefetch-accuracy counters can tell
    useful prefetches from pollution. Each set keeps its lines in recency
    order, one packed int per way (see cache.ml). *)

type t

(** Provenance value of demand-fetched lines. *)
val demand_prov : int

(** Returned by [lookup] on a miss; distinct from every provenance. *)
val no_hit : int

(** [line_shift ~line_bytes] is the integer log2 of the line size — the
    shift that turns a byte address into a line address.
    @raise Invalid_argument unless [line_bytes] is a power of two. *)
val line_shift : line_bytes:int -> int

(** [create ~size_bytes ~ways ~line_bytes] builds an empty tag store.
    @raise Invalid_argument unless sets are a power of two and lines are
    at least 16 bytes. *)
val create : size_bytes:int -> ways:int -> line_bytes:int -> t

(** [clear t] empties [t]: the state {!create} returns. *)
val clear : t -> unit

(** [lookup t line] checks for [line], updating LRU; returns
    the line's provenance on a hit (cleared to demand after first use),
    [no_hit] on a miss. *)
val lookup : t -> int -> int

(** [probe t line] tests presence without touching LRU or counters. *)
val probe : t -> int -> bool

(** [find t line] is the index of [line]'s entry, or -1 when absent;
    like [probe], it touches nothing. The index stays valid until the
    next change to [line]'s set. *)
val find : t -> int -> int

(** [touch t line i] makes [line], found at index [i] by {!find} with its
    set unchanged since, the most recently used line of its set; its
    provenance is kept. *)
val touch : t -> int -> int -> unit

(** [insert t line ~prov] installs [line], evicting the LRU way; refreshes
    LRU if already present. *)
val insert : t -> int -> prov:int -> unit

(** [insert_evict t line ~prov] is [insert] but returns the evicted
    line's provenance: a prefetcher id when the victim was a prefetched
    line that was never demanded, [demand_prov] otherwise. *)
val insert_evict : t -> int -> prov:int -> int

(** [insert_absent t line ~prov] is [insert_evict] for a line the caller
    knows to be absent from [t] (observed missing, and nothing since
    could have installed it): skips the presence scan. *)
val insert_absent : t -> int -> prov:int -> int
