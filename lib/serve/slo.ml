(* Latency/SLO summaries over a replay — fleet-wide and per shard.

   Latencies are virtual (simulated) milliseconds — finish minus
   arrival for every request that was actually served — so percentiles
   are deterministic replay properties, not host measurements. The host
   wall clock appears only in the separate throughput numbers the bench
   layer reports. Counters export under the [serve.*] segment of the
   DESIGN.md §3c catalogue — per-shard counters as
   [serve.shard.<i>.<leaf>], so fleet aggregates can be *derived* with
   {!Asap_obs.Registry.sum_prefix} instead of maintained separately —
   times go in as integer microseconds (the registry is integral),
   rates as milli-units.

   Percentile estimator: nearest-rank — the smallest sample x such that
   at least p% of the samples are <= x (sorted.(ceil (p/100 * n)) with
   1-based rank). It is exact in the sense that it always returns an
   observed sample, but it says nothing a sample of size n cannot
   support: with n < 100/(100-p) every sample sits below the requested
   rank resolution and nearest-rank degenerates to "the maximum", which
   reads as a meaningful tail estimate when it is not (a 5-request
   shard has no p99.9). {!percentile_opt} therefore returns [None]
   below that threshold; the raw {!percentile} survives for callers
   that want the degenerate value knowingly.

   A summary reads all four quantiles off one sorted copy of its
   sample: one [Float.compare] sort per latency array, not one per
   quantile. *)

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
  s_batches : int;            (* dispatches serving more than one request *)
  s_batch_max : int;
  s_queue_peak : int;         (* peak total queued across the fleet *)
  s_inflight_peak : int;
  s_builds : int;             (* host-side entry builds performed *)
  s_steals : int;             (* cross-shard batches stolen *)
  s_invalidated : int;        (* LRU entries dropped by updates *)
  s_stale_hits : int;         (* wrong-version cache hits (invariant: 0) *)
  s_p50_ms : float;
  s_p95_ms : float;
  s_p99_ms : float option;    (* None below 100 samples *)
  s_p999_ms : float option;   (* None below 1000 samples *)
  s_makespan_ms : float;      (* virtual time of the last finish *)
  s_throughput_rps : float;   (* served / virtual makespan *)
}

let sorted_copy (xs : float array) : float array =
  let sorted = Array.copy xs in
  Array.stable_sort Float.compare sorted;
  sorted

(* Nearest rank on an already sorted sample. *)
let nearest_rank (sorted : float array) ~(p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(** [percentile xs ~p] is the nearest-rank percentile ([p] in [0,100])
    of [xs] (not required sorted; empty yields 0). Degenerates to the
    sample maximum once [p] exceeds the sample's rank resolution — see
    {!percentile_opt} for the honest variant. *)
let percentile (xs : float array) ~(p : float) : float =
  nearest_rank (sorted_copy xs) ~p

(** [min_samples ~p] is the smallest sample count whose nearest-rank
    p-th percentile is not simply the maximum: ceil (100 / (100 - p)).
    100 for p99, 1000 for p99.9. @raise Invalid_argument outside
    (0, 100). *)
let min_samples ~(p : float) : int =
  if p <= 0. || p >= 100. then
    invalid_arg "Slo.min_samples: p outside (0, 100)";
  (* The epsilon absorbs binary-float noise in 100/(100-p): p = 99.9
     computes to 1000.0000000000009, which must not ceil to 1001. *)
  int_of_float (ceil (100. /. (100. -. p) -. 1e-6))

(** [percentile_opt xs ~p] is {!percentile} when the sample can resolve
    the requested quantile ([length xs >= min_samples ~p]), [None]
    otherwise — a tiny per-shard sample yields no tail estimate rather
    than a misleading one. *)
let percentile_opt (xs : float array) ~(p : float) : float option =
  if Array.length xs < min_samples ~p then None
  else Some (percentile xs ~p)

(* {!percentile_opt} on an already sorted sample. *)
let nearest_rank_opt (sorted : float array) ~(p : float) : float option =
  if Array.length sorted < min_samples ~p then None
  else Some (nearest_rank sorted ~p)

let make ?(invalidated = 0) ?(stale_hits = 0) ~latencies_ms ~ok ~degraded
    ~shed ~hits ~misses ~evictions ~batches ~batch_max ~queue_peak
    ~inflight_peak ~builds ~steals ~makespan_ms () : summary =
  let served = ok + degraded in
  let sorted = sorted_copy latencies_ms in
  { s_total = ok + degraded + shed; s_ok = ok; s_degraded = degraded;
    s_shed = shed; s_hits = hits; s_misses = misses;
    s_evictions = evictions; s_batches = batches; s_batch_max = batch_max;
    s_queue_peak = queue_peak; s_inflight_peak = inflight_peak;
    s_builds = builds; s_steals = steals; s_invalidated = invalidated;
    s_stale_hits = stale_hits;
    s_p50_ms = nearest_rank sorted ~p:50.;
    s_p95_ms = nearest_rank sorted ~p:95.;
    s_p99_ms = nearest_rank_opt sorted ~p:99.;
    s_p999_ms = nearest_rank_opt sorted ~p:99.9;
    s_makespan_ms = makespan_ms;
    s_throughput_rps =
      (if makespan_ms > 0. then 1000. *. float_of_int served /. makespan_ms
       else 0.) }

(** [hit_rate s] is hits / (hits + misses), 0 when the cache saw no
    lookups. *)
let hit_rate (s : summary) : float =
  let n = s.s_hits + s.s_misses in
  if n = 0 then 0. else float_of_int s.s_hits /. float_of_int n

let us ms = int_of_float (Float.round (ms *. 1000.))

(** [register reg s] exports the summary as [serve.*] counters into
    [reg] (times as integer microseconds, throughput as
    milli-requests/s). Tail percentiles the sample cannot resolve are
    omitted, not exported as 0. *)
let register (reg : Registry.t) (s : summary) : unit =
  let set = Registry.set reg in
  set "serve.requests" s.s_total;
  set "serve.ok" s.s_ok;
  set "serve.degraded" s.s_degraded;
  set "serve.shed" s.s_shed;
  set "serve.cache.hit" s.s_hits;
  set "serve.cache.miss" s.s_misses;
  set "serve.cache.evict" s.s_evictions;
  set "serve.batch.count" s.s_batches;
  set "serve.batch.max" s.s_batch_max;
  set "serve.queue.peak" s.s_queue_peak;
  set "serve.inflight.peak" s.s_inflight_peak;
  set "serve.build.host" s.s_builds;
  set "serve.steal.count" s.s_steals;
  set "serve.cache.invalidated" s.s_invalidated;
  set "serve.cache.stale_hit" s.s_stale_hits;
  set "serve.lat.p50_us" (us s.s_p50_ms);
  set "serve.lat.p95_us" (us s.s_p95_ms);
  (match s.s_p99_ms with
   | Some v -> set "serve.lat.p99_us" (us v)
   | None -> ());
  (match s.s_p999_ms with
   | Some v -> set "serve.lat.p999_us" (us v)
   | None -> ());
  set "serve.makespan_us" (us s.s_makespan_ms);
  set "serve.throughput_mrps"
    (int_of_float (Float.round (s.s_throughput_rps *. 1000.)))

(** [registry s] is {!register} into a fresh registry. *)
let registry (s : summary) : Registry.t =
  let reg = Registry.create () in
  register reg s;
  reg

let opt_json = function Some v -> Jsonu.Float v | None -> Jsonu.Null

let to_json (s : summary) : Jsonu.t =
  Jsonu.Obj
    [ ("requests", Jsonu.Int s.s_total);
      ("ok", Jsonu.Int s.s_ok);
      ("degraded", Jsonu.Int s.s_degraded);
      ("shed", Jsonu.Int s.s_shed);
      ("cache_hit", Jsonu.Int s.s_hits);
      ("cache_miss", Jsonu.Int s.s_misses);
      ("cache_evict", Jsonu.Int s.s_evictions);
      ("cache_invalidated", Jsonu.Int s.s_invalidated);
      ("cache_stale_hit", Jsonu.Int s.s_stale_hits);
      ("hit_rate", Jsonu.Float (hit_rate s));
      ("batches", Jsonu.Int s.s_batches);
      ("batch_max", Jsonu.Int s.s_batch_max);
      ("queue_peak", Jsonu.Int s.s_queue_peak);
      ("inflight_peak", Jsonu.Int s.s_inflight_peak);
      ("builds", Jsonu.Int s.s_builds);
      ("steals", Jsonu.Int s.s_steals);
      ("p50_ms", Jsonu.Float s.s_p50_ms);
      ("p95_ms", Jsonu.Float s.s_p95_ms);
      ("p99_ms", opt_json s.s_p99_ms);
      ("p999_ms", opt_json s.s_p999_ms);
      ("makespan_ms", Jsonu.Float s.s_makespan_ms);
      ("throughput_rps", Jsonu.Float s.s_throughput_rps) ]

let pp_opt ppf = function
  | Some v -> Format.fprintf ppf "%.3f" v
  | None -> Format.pp_print_string ppf "n/a"

let pp ppf (s : summary) =
  Format.fprintf ppf
    "@[<v>requests %d: %d ok, %d degraded, %d shed@,\
     cache: %d hit / %d miss / %d evict (hit rate %.2f)@,\
     batching: %d batched dispatches, largest %d; %d stolen@,\
     peaks: queue %d, in-flight %d; host builds %d@,\
     latency p50/p95/p99/p99.9: %.3f / %.3f / %a / %a ms@,\
     makespan %.3f ms, throughput %.1f req/s (virtual)@]"
    s.s_total s.s_ok s.s_degraded s.s_shed s.s_hits s.s_misses s.s_evictions
    (hit_rate s) s.s_batches s.s_batch_max s.s_steals s.s_queue_peak
    s.s_inflight_peak s.s_builds s.s_p50_ms s.s_p95_ms pp_opt s.s_p99_ms
    pp_opt s.s_p999_ms s.s_makespan_ms s.s_throughput_rps

(* --- Per-shard summaries --------------------------------------------- *)

type shard_summary = {
  sh_index : int;
  sh_ok : int;
  sh_degraded : int;
  sh_shed : int;              (* admission sheds on this home shard *)
  sh_hits : int;
  sh_misses : int;
  sh_evictions : int;
  sh_batches : int;
  sh_batch_max : int;
  sh_queue_peak : int;
  sh_steals_in : int;         (* batches this shard's servers stole *)
  sh_steals_out : int;        (* batches stolen from this shard's queue *)
  sh_invalidated : int;       (* LRU entries dropped by updates *)
  sh_stale_hits : int;        (* wrong-version cache hits (invariant: 0) *)
  sh_p50_ms : float option;   (* None below the rank resolution *)
  sh_p95_ms : float option;
  sh_p99_ms : float option;
  sh_p999_ms : float option;
}

(** [shard_make ~index ~latencies_ms ...] builds one shard's summary;
    every percentile goes through {!percentile_opt} — per-shard samples
    are routinely tiny, and a 5-request shard has no p99. *)
let shard_make ?(invalidated = 0) ?(stale_hits = 0) ~index ~latencies_ms ~ok
    ~degraded ~shed ~hits ~misses ~evictions ~batches ~batch_max ~queue_peak
    ~steals_in ~steals_out () : shard_summary =
  let sorted = sorted_copy latencies_ms in
  { sh_index = index; sh_ok = ok; sh_degraded = degraded; sh_shed = shed;
    sh_hits = hits; sh_misses = misses; sh_evictions = evictions;
    sh_batches = batches; sh_batch_max = batch_max;
    sh_queue_peak = queue_peak; sh_steals_in = steals_in;
    sh_steals_out = steals_out; sh_invalidated = invalidated;
    sh_stale_hits = stale_hits;
    sh_p50_ms = nearest_rank_opt sorted ~p:50.;
    sh_p95_ms = nearest_rank_opt sorted ~p:95.;
    sh_p99_ms = nearest_rank_opt sorted ~p:99.;
    sh_p999_ms = nearest_rank_opt sorted ~p:99.9 }

(** [shard_register reg sh] exports [serve.shard.<i>.<leaf>] counters:
    ok / degraded / shed / cache.hit / cache.miss / cache.evict /
    batch.count / batch.max / queue.peak / steal.in / steal.out and the
    resolvable [lat.*_us] percentiles. Fleet totals over additive
    leaves are derived with [Registry.sum_prefix ~leaf "serve.shard."]. *)
let shard_register (reg : Registry.t) (sh : shard_summary) : unit =
  let set leaf v =
    Registry.set reg (Printf.sprintf "serve.shard.%d.%s" sh.sh_index leaf) v
  in
  set "ok" sh.sh_ok;
  set "degraded" sh.sh_degraded;
  set "shed" sh.sh_shed;
  set "cache.hit" sh.sh_hits;
  set "cache.miss" sh.sh_misses;
  set "cache.evict" sh.sh_evictions;
  set "batch.count" sh.sh_batches;
  set "batch.max" sh.sh_batch_max;
  set "queue.peak" sh.sh_queue_peak;
  set "steal.in" sh.sh_steals_in;
  set "steal.out" sh.sh_steals_out;
  set "cache.invalidated" sh.sh_invalidated;
  set "cache.stale_hit" sh.sh_stale_hits;
  let set_lat leaf = function
    | Some v -> set leaf (us v)
    | None -> ()
  in
  set_lat "lat.p50_us" sh.sh_p50_ms;
  set_lat "lat.p95_us" sh.sh_p95_ms;
  set_lat "lat.p99_us" sh.sh_p99_ms;
  set_lat "lat.p999_us" sh.sh_p999_ms

let shard_to_json (sh : shard_summary) : Jsonu.t =
  Jsonu.Obj
    [ ("shard", Jsonu.Int sh.sh_index);
      ("ok", Jsonu.Int sh.sh_ok);
      ("degraded", Jsonu.Int sh.sh_degraded);
      ("shed", Jsonu.Int sh.sh_shed);
      ("cache_hit", Jsonu.Int sh.sh_hits);
      ("cache_miss", Jsonu.Int sh.sh_misses);
      ("cache_evict", Jsonu.Int sh.sh_evictions);
      ("cache_invalidated", Jsonu.Int sh.sh_invalidated);
      ("cache_stale_hit", Jsonu.Int sh.sh_stale_hits);
      ("batches", Jsonu.Int sh.sh_batches);
      ("batch_max", Jsonu.Int sh.sh_batch_max);
      ("queue_peak", Jsonu.Int sh.sh_queue_peak);
      ("steal_in", Jsonu.Int sh.sh_steals_in);
      ("steal_out", Jsonu.Int sh.sh_steals_out);
      ("p50_ms", opt_json sh.sh_p50_ms);
      ("p95_ms", opt_json sh.sh_p95_ms);
      ("p99_ms", opt_json sh.sh_p99_ms);
      ("p999_ms", opt_json sh.sh_p999_ms) ]
