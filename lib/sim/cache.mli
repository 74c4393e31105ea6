(** Set-associative cache tag store with LRU replacement.

    Only tags are modelled (data correctness is the interpreter's job).
    Each line remembers its provenance — demand fill or the id of the
    prefetcher that brought it in — so prefetch-accuracy counters can tell
    useful prefetches from pollution. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  line_bits : int;
  block : int;                 (** ways * 3: ints of metadata per set *)
  meta : int array;
    (** [sets*ways*3]; per way [tag; last_use; prov] interleaved so one
        simulated set probe touches one contiguous host block (tag state
        for a large L3 is hundreds of KiB — three parallel arrays cost
        three cold host-memory touches per random access) *)
  mutable stamp : int;
  mutable hits : int;
  mutable misses : int;
  mutable pf_hits : int;       (** demand hits on prefetched lines *)
}

(** Provenance value of demand-fetched lines. *)
val demand_prov : int

(** Returned by [lookup] on a miss; distinct from every provenance. *)
val no_hit : int

(** [line_shift ~line_bytes] is the integer log2 of the line size — the
    shift that turns a byte address into a line address.
    @raise Invalid_argument unless [line_bytes] is a power of two. *)
val line_shift : line_bytes:int -> int

(** [create ~name ~size_bytes ~ways ~line_bytes] builds a tag store.
    @raise Invalid_argument unless sets are a power of two. *)
val create : name:string -> size_bytes:int -> ways:int -> line_bytes:int -> t

(** [lookup t line] checks for [line], updating LRU and counters; returns
    the line's provenance on a hit (cleared to demand after first use),
    [no_hit] on a miss. *)
val lookup : t -> int -> int

(** [probe t line] tests presence without touching LRU or counters. *)
val probe : t -> int -> bool

(** [insert t line ~prov] installs [line], evicting the LRU way; refreshes
    LRU if already present. *)
val insert : t -> int -> prov:int -> unit

(** [insert_evict t line ~prov] is [insert] but returns the evicted
    line's provenance: a prefetcher id when the victim was a prefetched
    line that was never demanded, [demand_prov] otherwise. *)
val insert_evict : t -> int -> prov:int -> int

(** [insert_absent t line ~prov] is [insert_evict] for a line the caller
    has just observed missing from [t] (and nothing since the miss could
    have installed it): skips the presence re-scan. *)
val insert_absent : t -> int -> prov:int -> int

val accesses : t -> int
