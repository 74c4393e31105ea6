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
    from one process-global pool that persists across calls, grows on
    demand, and is shut down at process exit — repeated maps pay the
    domain-spawn cost once. Concurrent callers serialise on the pool; a
    [map] called from inside [f] runs sequentially. The first exception
    raised by any [f] is re-raised on the calling domain after all
    workers join. *)
val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
