(** The unified serving configuration: one record naming the whole
    entry-point surface — fleet width, per-shard queue/cache capacity,
    per-tenant admission quotas, engine/tune-mode overrides, deadline
    policy and host parallelism — consumed by {!Scheduler.run} and
    threaded through [asapc serve]/[genreqs] and [bench/serve]. Mirrors
    {!Asap_core.Driver.Cfg}'s role for single executions: [default]
    plus [with_*] builders instead of scattered knobs, e.g.
    [Scheduler.run Config.(default |> with_jobs 4 |> with_shards 8)]. *)

module Exec = Asap_sim.Exec
module Tuning = Asap_core.Tuning

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
  compile_ms : float;      (** virtual sparsify+compile penalty per miss *)
  batching : bool;         (** serve same-fingerprint waiters together *)
  stealing : bool;         (** idle shards steal from the longest queue *)
  vnodes : int;            (** router ring points per shard *)
  quota_default : int option;     (** per-tenant in-queue cap *)
  quotas : (string * int) list;   (** per-tenant overrides *)
  deadline_policy : deadline_policy;
  engine : Exec.engine option;    (** override every request's engine *)
  tune_mode : Tuning.mode option; (** override every request's tune_mode *)
  specialize : bool option;       (** override every request's specialize *)
  pipelines : (string * string) list;
      (** per-tenant pass-pipeline specs; a tenant's entry overrides
          the pipeline of every one of its requests *)
  jobs : int;              (** host domains for the build pass *)
}

(** One shard, 2 servers, queue 64, cache 128, 0.05 ms compile penalty,
    batching and stealing on, no quotas, [Degrade] deadlines, no
    overrides, sequential build — the historical scheduler defaults. *)
val default : t

val with_shards : int -> t -> t
val with_servers : int -> t -> t
val with_queue_limit : int -> t -> t
val with_cache_capacity : int -> t -> t
val with_compile_ms : float -> t -> t
val with_batching : bool -> t -> t
val with_stealing : bool -> t -> t
val with_vnodes : int -> t -> t

(** [with_quota q t] sets the default per-tenant in-queue quota
    ([None] removes it). *)
val with_quota : int option -> t -> t

val with_quotas : (string * int) list -> t -> t
val with_deadline_policy : deadline_policy -> t -> t
val with_engine : Exec.engine -> t -> t
val with_tune_mode : Tuning.mode -> t -> t
val with_specialize : bool -> t -> t
val with_pipelines : (string * string) list -> t -> t
val with_jobs : int -> t -> t

(** [quota_of t tenant] is the quota that applies to [tenant]: its
    [quotas] entry if present, else [quota_default]. *)
val quota_of : t -> string -> int option

(** [pipeline_of t tenant] is the pipeline override applying to
    [tenant]'s requests, if any. *)
val pipeline_of : t -> string -> string option

(** @raise Invalid_argument on a malformed configuration (including an
    invalid per-tenant pipeline spec). *)
val validate : t -> unit
