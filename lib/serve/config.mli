(** The serving configuration: one record naming the fleet — width,
    per-shard queue/cache capacity, per-tenant admission quotas,
    deadline policy and host parallelism — consumed by
    {!Scheduler.run} and threaded through [asapc serve]. It holds only
    fleet settings: what a request builds is the request's own business
    (see {!Request.override}). Mirrors {!Asap_core.Driver.Cfg}'s role
    for single executions: [default] plus [with_*] builders instead of
    scattered knobs, e.g.
    [Scheduler.run Config.(default |> with_jobs 4 |> with_shards 8)]. *)

(** What happens to a request whose deadline expired while it queued. *)
type deadline_policy =
  | Degrade  (** serve its prefetch-free baseline entry (the default) *)
  | Drop     (** shed it at dispatch time *)
  | Ignore   (** serve the requested variant anyway *)

val deadline_policy_to_string : deadline_policy -> string
val deadline_policy_of_string : string -> deadline_policy option
val valid_deadline_policies : string

type t = {
  shards : int;            (** fleet width; 1 = the classic scheduler *)
  servers : int;           (** virtual servers per shard *)
  queue_limit : int;       (** per-shard FIFO depth; past it arrivals shed *)
  cache_capacity : int;    (** per-shard LRU entries; 0 disables cache,
                               memoised builds and batching *)
  batching : bool;         (** serve same-fingerprint waiters together *)
  stealing : bool;         (** idle shards steal from the longest queue *)
  quota_default : int option;     (** per-tenant in-queue cap *)
  quotas : (string * int) list;   (** per-tenant overrides *)
  deadline_policy : deadline_policy;
  jobs : int;              (** host domains for the build pass *)
}

(** One shard, 2 servers, queue 64, cache 128, batching and stealing
    on, no quotas, [Degrade] deadlines, sequential build — the
    historical scheduler defaults. *)
val default : t

val with_shards : int -> t -> t
val with_servers : int -> t -> t
val with_queue_limit : int -> t -> t
val with_cache_capacity : int -> t -> t
val with_batching : bool -> t -> t
val with_stealing : bool -> t -> t

(** [with_quota q t] sets the default per-tenant in-queue quota
    ([None] removes it). *)
val with_quota : int option -> t -> t

val with_quotas : (string * int) list -> t -> t
val with_deadline_policy : deadline_policy -> t -> t
val with_jobs : int -> t -> t

(** [quota_of t tenant] is the quota that applies to [tenant]: its
    [quotas] entry if present, else [quota_default]. *)
val quota_of : t -> string -> int option

(** @raise Invalid_argument on a malformed configuration. *)
val validate : t -> unit
