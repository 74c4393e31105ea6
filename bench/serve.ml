(* Serving benchmark: replay a synthetic hot/cold Zipf mix through the
   scheduler with the compile/tune cache on and off, and report host
   wall-clock throughput plus the cached replay's hit rate.

   The cache's claim is host work avoided: with it, each distinct
   fingerprint sparsifies/compiles/tunes once; without it, every request
   rebuilds. The mix is Zipf-skewed, so the cached replay must be at
   least MIN_SPEEDUP times faster end to end (exit 1 otherwise). Virtual
   scheduling quantities (hit rate, latency percentiles) are identical
   either run to run — only the wall times vary with the host.

   Results go to stdout as JSON (tracked in BENCH_serve.json by
   tools/bench_smoke.sh @serve-smoke).

   Usage: serve.exe [--engine interp|bytecode]
                    [--tune-mode sweep|model|hybrid]
                    [n] [seed] [jobs] [min_speedup; 0 disables] *)

module Mix = Asap_serve.Mix
module Scheduler = Asap_serve.Scheduler
module Config = Asap_serve.Config
module Slo = Asap_serve.Slo
module Exec = Asap_sim.Exec
module Tuning = Asap_core.Tuning

let () =
  (* Pull out [--engine E] / [--tune-mode M]; what remains is the
     positional tail. *)
  let engine = ref Exec.default_engine in
  let tune_mode = ref Tuning.default_mode in
  let rec split acc = function
    | [] -> List.rev acc
    | "--engine" :: v :: rest ->
      (match Exec.engine_of_string v with
       | Some e -> engine := e
       | None ->
         Printf.eprintf "unknown engine %s (%s)\n" v Exec.valid_engines;
         exit 1);
      split acc rest
    | "--tune-mode" :: v :: rest ->
      (match Tuning.mode_of_string v with
       | Some m -> tune_mode := m
       | None ->
         Printf.eprintf "unknown tune mode %s (%s)\n" v Tuning.valid_modes;
         exit 1);
      split acc rest
    | a :: rest -> split (a :: acc) rest
  in
  let pos =
    Array.of_list (split [] (List.tl (Array.to_list Sys.argv)))
  in
  let argi i default =
    if Array.length pos > i then int_of_string pos.(i) else default
  in
  let argf i default =
    if Array.length pos > i then float_of_string pos.(i) else default
  in
  let n = argi 0 300 in
  let seed = argi 1 11 in
  let jobs = argi 2 4 in
  let min_speedup = argf 3 2.0 in
  let engine = !engine and tune_mode = !tune_mode in
  let profiles () =
    List.map
      (fun p -> { p with Mix.p_engine = engine; p_tune_mode = tune_mode })
      (Mix.default_profiles ())
  in
  let reqs = Mix.hot_cold ~seed ~n (profiles ()) in
  let replay ~cache_capacity =
    let config =
      Config.(default |> with_cache_capacity cache_capacity |> with_jobs jobs)
    in
    (* One warm-up pass faults in code and allocators, untimed. *)
    if cache_capacity > 0 then
      ignore (Scheduler.run config (Mix.hot_cold ~seed ~n:8 (profiles ())));
    let t0 = Unix.gettimeofday () in
    let rp = Scheduler.run config reqs in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, rp)
  in
  let cached_wall, cached =
    replay ~cache_capacity:Config.default.Config.cache_capacity
  in
  let uncached_wall, uncached = replay ~cache_capacity:0 in
  let cs = cached.Scheduler.rp_summary and us = uncached.Scheduler.rp_summary in
  let speedup = uncached_wall /. cached_wall in
  Printf.printf
    "{\n\
    \  \"mix\": \"hot_cold zipf n=%d seed=%d (10 profiles)\",\n\
    \  \"engine\": \"%s\",\n\
    \  \"tune_mode\": \"%s\",\n\
    \  \"host_cpus\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"cached\": { \"wall_s\": %.3f, \"req_per_s\": %.1f, \"builds\": %d,\n\
    \               \"hit_rate\": %.3f, \"p95_virtual_ms\": %.3f },\n\
    \  \"uncached\": { \"wall_s\": %.3f, \"req_per_s\": %.1f, \"builds\": %d },\n\
    \  \"serve_req_per_s\": %.1f,\n\
    \  \"cache_speedup\": %.2f\n\
     }\n"
    n seed
    (Exec.engine_to_string engine)
    (Tuning.mode_to_string tune_mode)
    (Domain.recommended_domain_count ())
    jobs cached_wall
    (float_of_int n /. cached_wall)
    cs.Slo.s_builds (Slo.hit_rate cs) cs.Slo.s_p95_ms uncached_wall
    (float_of_int n /. uncached_wall)
    us.Slo.s_builds
    (float_of_int n /. cached_wall)
    speedup;
  if min_speedup > 0. && speedup < min_speedup then begin
    Printf.eprintf
      "bench/serve: FAIL — cached replay only %.2fx faster than uncached \
       (need %.1fx)\n"
      speedup min_speedup;
    exit 1
  end
