(** Miss Status Holding Registers: the pool of outstanding fills.

    A demand miss to an in-flight line merges with it. When the pool is
    full, demand misses wait for the earliest completion while prefetches
    are dropped — the resource behaviour the paper's §4.1 argument relies
    on.

    The pool is consulted on every simulated memory access, so the API is
    allocation-free: [find] and [earliest] return completion cycles
    directly, with -1 meaning "absent". Completion times must be
    positive, and fills complete in the order they are added (a FIFO;
    see mshr.ml). *)

type t

(** [create cap] is an empty pool of [cap] entries.
    @raise Invalid_argument unless [1 <= cap <= 255]. *)
val create : int -> t

(** [clear t] empties the pool: the state {!create} returns. *)
val clear : t -> unit

(** [expire t ~now] retires entries whose fill completed by [now]. *)
val expire : t -> now:int -> unit

(** [find t line] is the completion time of an in-flight fill of [line],
    or -1 if none is in flight. *)
val find : t -> int -> int

val full : t -> bool

(** [earliest t] is the soonest completion among in-flight fills, or -1
    when the pool is empty. *)
val earliest : t -> int

(** [take_prov t line] is the provenance of the in-flight fill of [line]
    (-1 for demand fills or when nothing is in flight); clears it so the
    same fill is attributed at most once. *)
val take_prov : t -> int -> int

(** [add ~prov t line done_at] registers a fill ([prov] is -1 for demand
    fills, else the prefetcher's provenance id — required, because an
    optional argument would box a [Some] per miss) of a line not in
    flight. Fills must be added in completion order, as the one DRAM
    channel produces them.
    @raise Invalid_argument when the pool is full, [done_at] is not
    positive, or [done_at] is below an earlier fill's. *)
val add : prov:int -> t -> int -> int -> unit
