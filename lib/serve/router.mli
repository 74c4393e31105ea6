(** Consistent-hash request routing: fingerprints map to home shards
    through a ring of virtual nodes. Routing is a pure function of
    (shards, vnodes) over an in-repo FNV-1a hash — deterministic across
    hosts and runs — and growing the fleet moves only the keys claimed
    by the new shard's points (about 1/(N+1) of the keyspace), so warm
    per-shard caches survive resizes. *)

type t

(** [create ~shards ()] builds the ring with [vnodes] points per shard
    (default 64; more points → better balance, larger ring).
    @raise Invalid_argument if [shards < 1] or [vnodes < 1]. *)
val create : ?vnodes:int -> shards:int -> unit -> t

val shards : t -> int

(** [shard_of t key] is [key]'s home shard in [0, shards t). *)
val shard_of : t -> string -> int

(** [hash s] is the stable 64-bit FNV-1a hash folded to a non-negative
    int (exposed for tests and tooling). *)
val hash : string -> int
