(** The deterministic serving fleet: replay a request list through
    [shards] shards — each owning virtual servers, a bounded FIFO queue
    and a compile/tune LRU — with consistent-hash routing on artefact
    fingerprints, cross-shard work stealing, per-tenant admission
    quotas, same-fingerprint batching and a configurable deadline
    policy.

    Host parallelism only accelerates the build pass (entries are built
    once per distinct fingerprint on {!Asap_core.Par} slices leased per
    shard, results index-slotted); scheduling itself is a sequential
    discrete-event simulation in virtual time, so {!run} is a pure
    function of the request list and {!Config.t} — byte-identical
    records at any [jobs]. See DESIGN.md §3f for the router → shard →
    steal path and the determinism argument. *)

module Driver = Asap_core.Driver
module Registry = Asap_obs.Registry
module Chrome = Asap_obs.Chrome
module Jsonu = Asap_obs.Jsonu

type outcome =
  | Served      (** on time (or no deadline) with the requested variant *)
  | Degraded    (** deadline expired before dispatch; served as baseline *)
  | Shed        (** rejected by admission control (queue full or tenant
                    quota), or dropped at dispatch under [Config.Drop] *)

type record = {
  r_index : int;                   (** position in the input list *)
  r_req : Request.t;
  r_outcome : outcome;
  r_fp : string;                   (** fingerprint actually served *)
  r_hit : bool;                    (** cache hit at dispatch *)
  r_batch : int;                   (** its dispatch batch size; 0 = shed *)
  r_queue_ms : float;              (** admission wait: dispatch - arrival *)
  r_service_ms : float;            (** own run + (on miss) build penalty *)
  r_finish_ms : float;             (** virtual completion; arrival if shed *)
  r_shard : int;                   (** shard whose server dispatched it *)
  r_home : int;                    (** shard its fingerprint routed to *)
  r_stolen : bool;                 (** served by a shard other than home *)
  r_result : Driver.result option; (** [None] for shed *)
}

type replayed = {
  rp_records : record array;       (** input order *)
  rp_summary : Slo.summary;        (** fleet-wide *)
  rp_shards : Slo.shard_summary array;
  rp_registry : Registry.t;
    (** [serve.*] counters: per-shard [serve.shard.<i>.*], per-tenant
        [serve.tenant.<t>.*] (requests / ok / degraded / shed /
        quota_shed), fleet totals derived from the per-shard leaves via
        {!Registry.sum_prefix}, plus the tuning-decision counters
        [serve.tune.sweep_runs] / [serve.tune.model_decisions] /
        [serve.tune.rollbacks] and the hybrid-mode agreement counters
        [tune.model.agree] / [tune.model.disagree] /
        [tune.model.delta_cycles], aggregated deterministically over
        the build list. Specialization: [serve.spec.hit] (specialized
        entries served from cache), [serve.spec.miss] (specialized
        builds), [serve.spec.build_ns] (host time spent preparing them
        — wall-clock, informative only). Pack memoisation:
        [serve.pack.hit] / [serve.pack.miss] (packs reused / performed
        by the build pass's shared-storage pre-pass) *)
}

(** [run ?trace ?updates config requests] replays the fleet over
    exactly the given requests (bulk per-request settings are applied
    beforehand with {!Request.override}): each distinct fingerprint
    builds once
    (host-parallel, per-shard {!Asap_core.Par.lease} slices), then the
    sequential virtual-time loop routes, admits (quota, then queue
    limit), batches, steals and serves. [trace], if given, receives
    per-request spans on per-shard-server tracks and shed instants.

    [updates] is a stream of {!Request.Update} delta messages: a
    request arriving at or after an update to its matrix is served
    from the updated matrix under a version-suffixed fingerprint
    (earlier arrivals keep the version they saw), and when an update
    fires, every cached entry of an older version of that matrix is
    dropped from every shard's LRU — counted as
    [serve.(shard.<i>.)cache.invalidated], with
    [...cache.stale_hit] proving no hit ever served a wrong-version
    entry. Versioning is a pure function of the item stream, so
    records stay byte-identical at any [jobs].
    @raise Invalid_argument on a bad config, unknown matrix spec,
    malformed request or out-of-bounds update delta. *)
val run :
  ?trace:Chrome.t -> ?updates:Request.Update.t list -> Config.t ->
  Request.t list -> replayed

(** [record_to_line r]: one record as a one-line JSON object of virtual
    quantities only — byte-comparable across runs and host parallelism. *)
val record_to_line : record -> string
