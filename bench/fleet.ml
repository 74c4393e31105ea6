(* Fleet benchmark: the sharded serving fleet against a single shard on
   the same multi-tenant Zipf trace, plus the determinism gate that
   justifies running the build pass host-parallel at all.

   Two gates, both over *virtual* quantities (deterministic replay
   properties, not host measurements):

   - determinism: the fleet replay's per-request records must be
     byte-identical between [jobs] = 1 and [jobs] = N. Host domains
     only accelerate the build pass; if they ever leak into the
     records, this trips.
   - scaling: fleet virtual throughput (served requests per virtual
     makespan, [Slo.s_throughput_rps]) must be at least [min_ratio]
     (default 2x) the single-shard replay's on a trace dense enough to
     saturate one shard's servers.

   Results go to stdout as JSON (tracked in BENCH_fleet.json by
   tools/serve_smoke.sh @serve-smoke).

   With [--soak N] (N defaults to 1_000_000 when omitted) the fleet
   additionally replays an N-request Zipf trace and reports the
   outcome as an ungated "soak" row: the point is surviving the volume
   with a sane summary (virtual throughput, shed rate, p99), not a
   ratio gate — soak cost scales with N and would make the gate a
   host-speed lottery.

   Usage: fleet.exe [--engine interp|bytecode] [--shards K]
                    [--soak [N]] [n] [seed] [jobs]
                    [min_ratio; 0 disables] *)

module Mix = Asap_serve.Mix
module Scheduler = Asap_serve.Scheduler
module Config = Asap_serve.Config
module Slo = Asap_serve.Slo
module Registry = Asap_obs.Registry
module Exec = Asap_sim.Exec

let () =
  let engine = ref Exec.default_engine in
  let shards = ref 4 in
  let soak = ref 0 in
  let rec split acc = function
    | [] -> List.rev acc
    | "--engine" :: v :: rest ->
      (match Exec.engine_of_string v with
       | Some e -> engine := e
       | None ->
         Printf.eprintf "unknown engine %s (%s)\n" v Exec.valid_engines;
         exit 1);
      split acc rest
    | "--shards" :: v :: rest ->
      (match int_of_string_opt v with
       | Some k when k >= 1 -> shards := k
       | _ -> Printf.eprintf "bad --shards %s\n" v; exit 1);
      split acc rest
    | "--soak" :: v :: rest when int_of_string_opt v <> None ->
      (match int_of_string_opt v with
       | Some k when k >= 0 -> soak := k (* 0 disables *)
       | _ -> Printf.eprintf "bad --soak %s\n" v; exit 1);
      split acc rest
    | "--soak" :: rest -> soak := 1_000_000; split acc rest
    | a :: rest -> split (a :: acc) rest
  in
  let pos = Array.of_list (split [] (List.tl (Array.to_list Sys.argv))) in
  let argi i default =
    if Array.length pos > i then int_of_string pos.(i) else default
  in
  let argf i default =
    if Array.length pos > i then float_of_string pos.(i) else default
  in
  let n = argi 0 240 in
  let seed = argi 1 11 in
  let jobs = argi 2 4 in
  let min_ratio = argf 3 2.0 in
  let engine = !engine and shards = !shards and soak = !soak in
  let profiles =
    List.map
      (fun p -> { p with Mix.p_engine = engine })
      (Mix.default_profiles ())
  in
  (* Arrivals dense enough (5 us mean gap) that one shard's two servers
     queue-saturate; the fleet's [shards * servers] drain the same trace
     in a fraction of the virtual makespan. *)
  let reqs =
    Mix.hot_cold ~mean_gap_ms:0.005
      ~tenants:[ ("alpha", 3.); ("beta", 1.); ("gamma", 1.) ]
      ~seed ~n profiles
  in
  let replay ~shards ~jobs =
    let config =
      Config.(default |> with_shards shards |> with_jobs jobs)
    in
    let t0 = Unix.gettimeofday () in
    let rp = Scheduler.run config reqs in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, rp)
  in
  let lines rp =
    String.concat "\n"
      (Array.to_list (Array.map Scheduler.record_to_line rp.Scheduler.rp_records))
  in
  let single_wall, single = replay ~shards:1 ~jobs in
  let fleet_wall, fleet = replay ~shards ~jobs in
  let _, fleet_seq = replay ~shards ~jobs:1 in
  let identical = String.equal (lines fleet) (lines fleet_seq) in
  let ss = single.Scheduler.rp_summary and fs = fleet.Scheduler.rp_summary in
  let ratio = fs.Slo.s_throughput_rps /. ss.Slo.s_throughput_rps in
  let steals =
    Option.value ~default:0
      (Registry.get fleet.Scheduler.rp_registry "serve.steal.count")
  in
  (* Ungated soak: same fleet config on an N-request trace. Reported,
     never gated — see the header comment. *)
  let soak_json =
    if soak = 0 then ""
    else begin
      let sreqs =
        Mix.hot_cold ~mean_gap_ms:0.005
          ~tenants:[ ("alpha", 3.); ("beta", 1.); ("gamma", 1.) ]
          ~seed:(seed + 1) ~n:soak profiles
      in
      let t0 = Unix.gettimeofday () in
      let rp =
        Scheduler.run
          Config.(default |> with_shards shards |> with_jobs jobs)
          sreqs
      in
      let dt = Unix.gettimeofday () -. t0 in
      let s = rp.Scheduler.rp_summary in
      Printf.sprintf
        "  \"soak\": { \"requests\": %d, \"wall_s\": %.3f, \"served\": %d,\n\
        \            \"shed\": %d, \"hits\": %d, \"builds\": %d,\n\
        \            \"p99_ms\": %s, \"makespan_ms\": %.3f,\n\
        \            \"virtual_rps\": %.1f },\n"
        soak dt
        (s.Slo.s_ok + s.Slo.s_degraded)
        s.Slo.s_shed s.Slo.s_hits s.Slo.s_builds
        (match s.Slo.s_p99_ms with
         | Some p -> Printf.sprintf "%.3f" p
         | None -> "null")
        s.Slo.s_makespan_ms s.Slo.s_throughput_rps
    end
  in
  Printf.printf
    "{\n\
    \  \"mix\": \"hot_cold zipf n=%d seed=%d, 3 tenants, 5us mean gap\",\n\
    \  \"engine\": \"%s\",\n\
    \  \"jobs\": %d,\n\
    \  \"single\": { \"shards\": 1, \"wall_s\": %.3f, \"served\": %d,\n\
    \               \"shed\": %d, \"makespan_ms\": %.3f,\n\
    \               \"virtual_rps\": %.1f },\n\
    \  \"fleet\": { \"shards\": %d, \"wall_s\": %.3f, \"served\": %d,\n\
    \              \"shed\": %d, \"steals\": %d, \"makespan_ms\": %.3f,\n\
    \              \"virtual_rps\": %.1f },\n\
    \  \"fleet_speedup\": %.2f,\n\
     %s\
    \  \"records_jobs_identical\": %b\n\
     }\n"
    n seed
    (Exec.engine_to_string engine)
    jobs single_wall
    (ss.Slo.s_ok + ss.Slo.s_degraded)
    ss.Slo.s_shed ss.Slo.s_makespan_ms ss.Slo.s_throughput_rps shards
    fleet_wall
    (fs.Slo.s_ok + fs.Slo.s_degraded)
    fs.Slo.s_shed steals fs.Slo.s_makespan_ms fs.Slo.s_throughput_rps ratio
    soak_json identical;
  if not identical then begin
    Printf.eprintf
      "bench/fleet: FAIL — fleet records differ between --jobs 1 and \
       --jobs %d\n"
      jobs;
    exit 1
  end;
  if min_ratio > 0. && ratio < min_ratio then begin
    Printf.eprintf
      "bench/fleet: FAIL — %d-shard fleet only %.2fx single-shard \
       virtual throughput (need %.1fx)\n"
      shards ratio min_ratio;
    exit 1
  end
