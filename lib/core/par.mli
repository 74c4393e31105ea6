(** Deterministic host-parallel map over a persistent domain pool.

    Independent simulation cells (each with its own {!Asap_sim.Hierarchy})
    are embarrassingly parallel on the host; this helper farms them to a
    domain pool with dynamic load-balancing and index-slotted results, so
    output order is deterministic and anything printed from it stays
    byte-identical to a sequential run.

    Worker functions must not touch domain-unsafe shared state (e.g. a
    [Hashtbl] cache) — memoise on the calling domain after [map]
    returns. *)

(** [map ~jobs f xs] is [Array.map f xs] computed by [jobs] domains (the
    caller's included; [jobs <= 1] runs sequentially). Helper domains come
    from a lazily-created process-global {!pool} that persists across
    calls, grows on demand, and is shut down at process exit — repeated
    maps pay the domain-spawn cost once. The first exception raised by any
    [f] is re-raised on the calling domain after all workers join. *)
val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array

(** {1 Explicit pools}

    Long-lived components (the serve scheduler) that want control over
    worker lifetime can own a pool instead of sharing the global one. *)

(** A set of parked worker domains, created once and reused by every
    {!map_pool} call on it. *)
type pool

(** [pool ~workers] spawns [workers] helper domains that park between
    jobs. [workers = 0] is valid: maps on such a pool run sequentially. *)
val pool : workers:int -> pool

(** Number of live helper domains ([0] after {!shutdown}). *)
val pool_size : pool -> int

(** [map_pool p ~jobs f xs] is {!map} computed by the calling domain plus
    at most [min (jobs - 1) (pool_size p)] pool workers. Concurrent
    callers serialise on the pool. A worker domain calling back into its
    own pool degrades to [Array.map] (no deadlock). Raises
    [Invalid_argument] if [p] has been {!shutdown} and parallelism was
    requested (degenerate calls still run sequentially). *)
val map_pool : pool -> jobs:int -> ('a -> 'b) -> 'a array -> 'b array

(** Joins every worker domain, waiting for an in-flight map to finish
    first. Idempotent. After shutdown the pool is empty and sequential. *)
val shutdown : pool -> unit

(** {1 Slice leasing}

    A lease partitions a pool's worker {e budget} among several
    consumers (the fleet's shards) without splitting the domains: each
    slice is the pool with a per-slice [jobs] cap. Slices serialise on
    the underlying pool like any other [map_pool] callers — the point
    is a deterministic per-shard budget, not concurrency between
    slices. *)

type slice

(** [lease p ~shards] splits [pool_size p] helpers into [shards]
    slices: slice [i] gets [size/shards] helpers (+1 for
    [i < size mod shards]) plus the calling domain, so every slice's
    budget is at least 1. @raise Invalid_argument if [shards < 1]. *)
val lease : pool -> shards:int -> slice array

(** [map_slice s f xs] is {!map_pool} on the slice's pool bounded by
    its budget. *)
val map_slice : slice -> ('a -> 'b) -> 'a array -> 'b array
