(** Latency/SLO summaries over a replay — fleet-wide and per shard.
    Latencies are virtual (simulated) milliseconds, so percentiles are
    deterministic replay properties; host wall time lives only in the
    bench layer. Exports as [serve.*] counters (times as integer
    microseconds); per-shard counters as [serve.shard.<i>.<leaf>] so
    fleet aggregates can be derived with
    {!Asap_obs.Registry.sum_prefix}.

    Percentiles use the nearest-rank estimator: the smallest observed
    sample x with at least p% of samples <= x. With fewer than
    [min_samples ~p] samples it degenerates to the maximum, so
    {!percentile_opt} returns [None] below that threshold and the tail
    fields of summaries are options. *)

module Registry = Asap_obs.Registry
module Jsonu = Asap_obs.Jsonu

type summary = {
  s_total : int;
  s_ok : int;
  s_degraded : int;
  s_shed : int;
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_batches : int;           (** dispatches serving more than one request *)
  s_batch_max : int;
  s_queue_peak : int;        (** peak total queued across the fleet *)
  s_inflight_peak : int;
  s_builds : int;            (** host-side entry builds performed *)
  s_steals : int;            (** cross-shard batches stolen *)
  s_invalidated : int;       (** LRU entries dropped by streaming updates *)
  s_stale_hits : int;
      (** cache hits serving a wrong-version entry — 0 is the
          versioned-fingerprint invariant *)
  s_p50_ms : float;
  s_p95_ms : float;
  s_p99_ms : float option;   (** [None] below 100 samples *)
  s_p999_ms : float option;  (** [None] below 1000 samples *)
  s_makespan_ms : float;     (** virtual time of the last finish *)
  s_throughput_rps : float;  (** served / virtual makespan *)
}

(** [percentile xs ~p] is the nearest-rank percentile ([p] in [0,100]);
    0 on empty input. Degenerates to the sample maximum once [p]
    exceeds the sample's rank resolution — see {!percentile_opt}. *)
val percentile : float array -> p:float -> float

(** [min_samples ~p] is the smallest sample count whose nearest-rank
    p-th percentile is not simply the maximum: ceil (100 / (100 - p)) —
    100 for p99, 1000 for p99.9. @raise Invalid_argument outside
    (0, 100). *)
val min_samples : p:float -> int

(** [percentile_opt xs ~p] is {!percentile} when
    [Array.length xs >= min_samples ~p], [None] otherwise. *)
val percentile_opt : float array -> p:float -> float option

val make :
  ?invalidated:int -> ?stale_hits:int -> latencies_ms:float array ->
  ok:int -> degraded:int -> shed:int -> hits:int -> misses:int ->
  evictions:int -> batches:int -> batch_max:int -> queue_peak:int ->
  inflight_peak:int -> builds:int -> steals:int -> makespan_ms:float ->
  unit -> summary

(** [hit_rate s] is hits / (hits + misses); 0 without lookups. *)
val hit_rate : summary -> float

(** [register reg s] exports the summary as [serve.*] counters into an
    existing registry; unresolvable tail percentiles are omitted. *)
val register : Registry.t -> summary -> unit

(** [registry s] is {!register} into a fresh registry. *)
val registry : summary -> Registry.t

val to_json : summary -> Jsonu.t
val pp : Format.formatter -> summary -> unit

(** One shard's slice of the fleet summary. Admission sheds are
    attributed to the request's home shard; service counters (batches,
    cache traffic, steals) to the shard whose server dispatched. *)
type shard_summary = {
  sh_index : int;
  sh_ok : int;
  sh_degraded : int;
  sh_shed : int;
  sh_hits : int;
  sh_misses : int;
  sh_evictions : int;
  sh_batches : int;
  sh_batch_max : int;
  sh_queue_peak : int;
  sh_steals_in : int;        (** batches this shard's servers stole *)
  sh_steals_out : int;       (** batches stolen from this shard's queue *)
  sh_invalidated : int;      (** LRU entries dropped by streaming updates *)
  sh_stale_hits : int;       (** wrong-version cache hits (invariant: 0) *)
  sh_p50_ms : float option;  (** [None] below the rank resolution *)
  sh_p95_ms : float option;
  sh_p99_ms : float option;
  sh_p999_ms : float option;
}

val shard_make :
  ?invalidated:int -> ?stale_hits:int -> index:int ->
  latencies_ms:float array -> ok:int -> degraded:int -> shed:int ->
  hits:int -> misses:int -> evictions:int -> batches:int -> batch_max:int ->
  queue_peak:int -> steals_in:int -> steals_out:int -> unit -> shard_summary

(** [shard_register reg sh] exports [serve.shard.<i>.<leaf>] counters
    (ok / degraded / shed / cache.* / batch.* / queue.peak / steal.* /
    resolvable [lat.*_us]). *)
val shard_register : Registry.t -> shard_summary -> unit

val shard_to_json : shard_summary -> Jsonu.t
