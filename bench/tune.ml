(* Cold-start tuning benchmark: the cost model against the candidate
   sweep.

   Three measurements over an all-[`Tuned] request suite:

   - decision throughput (host wall): how many tuning decisions per
     second each mode makes on pre-packed matrices. This is the quantity
     the cost model exists to improve — the sweep runs
     O(candidates) sliced simulations per decision, the model one O(nnz)
     feature pass — and the gate [min_ratio] (default 3x) applies here.
   - uncached replay (host wall): full cold builds
     (pack + decide + compile + cold run) per second under each mode.
     Reported for honesty, NOT gated: packing and the cold execution
     dominate both modes, so the end-to-end ratio is structurally small
     even when decisions get orders of magnitude cheaper.
   - virtual decision cost and agreement: summed virtual tune cycles per
     mode, and hybrid-mode model-vs-sweep agreement with the profiled
     cycle regret on disagreements.

   Results go to stdout as JSON (tracked in BENCH_tune.json by
   tools/serve_smoke.sh @serve-smoke). [--records FILE] writes the
   model-mode replay's per-request records as JSONL, followed by one
   line per mode with the replay's counter-registry snapshot diff
   (includes the serve.tune.* and tune.model.* counters).

   Usage: tune.exe [--engine interp|bytecode] [--records FILE]
                   [n] [seed] [jobs] [min_ratio; 0 disables] *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Tuning = Asap_core.Tuning
module Select = Asap_model.Select
module Generate = Asap_workloads.Generate
module Mix = Asap_serve.Mix
module Scheduler = Asap_serve.Scheduler
module Slo = Asap_serve.Slo
module Request = Asap_serve.Request
module Registry = Asap_obs.Registry
module Jsonu = Asap_obs.Jsonu

(* Rank-2 spread mirroring the serve mix: irregular matrices where
   prefetching pays, structured ones where the tuner rolls back. *)
let specs =
  [ "powerlaw:3000,6"; "heavytail:2500,10000,10"; "uniform:2500,12000";
    "banded:2500,8"; "stencil2d:50"; "road:2000,3"; "powerlaw:400,5";
    "uniform:300,1200"; "banded:300,4" ]

let () =
  let engine = ref Exec.default_engine in
  let records = ref None in
  let rec split acc = function
    | [] -> List.rev acc
    | "--engine" :: v :: rest ->
      (match Exec.engine_of_string v with
       | Some e -> engine := e
       | None ->
         Printf.eprintf "unknown engine %s (%s)\n" v Exec.valid_engines;
         exit 1);
      split acc rest
    | "--records" :: v :: rest ->
      records := Some v;
      split acc rest
    | a :: rest -> split (a :: acc) rest
  in
  let pos = Array.of_list (split [] (List.tl (Array.to_list Sys.argv))) in
  let argi i default =
    if Array.length pos > i then int_of_string pos.(i) else default
  in
  let argf i default =
    if Array.length pos > i then float_of_string pos.(i) else default
  in
  let n = argi 0 120 in
  let seed = argi 1 11 in
  let jobs = argi 2 4 in
  let min_ratio = argf 3 3.0 in
  let engine = !engine in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let enc = Encoding.csr () in

  (* --- decision throughput (host wall, pre-packed matrices) ---------- *)
  let mats =
    List.map
      (fun spec ->
        match Generate.of_spec spec with
        | Ok coo -> (spec, coo, Storage.pack enc coo)
        | Error e -> Printf.eprintf "bench/tune: %s\n" e; exit 1)
      specs
  in
  let reps = max 1 (n / List.length specs) in
  let time_decisions mode =
    let t0 = Unix.gettimeofday () in
    let cycles = ref 0 in
    for _ = 1 to reps do
      List.iter
        (fun (_, coo, st) ->
          let d = Select.decide ~engine ~st ~mode machine enc coo in
          cycles := !cycles + d.Select.d_tune_cycles)
        mats
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let total = reps * List.length mats in
    (float_of_int total /. dt, !cycles / reps)
  in
  (* Warm-up: fault in code paths untimed. *)
  ignore (time_decisions `Model);
  let sweep_per_s, sweep_cycles = time_decisions `Sweep in
  let model_per_s, model_cycles = time_decisions `Model in
  let decision_ratio = model_per_s /. sweep_per_s in
  let virtual_ratio = float_of_int sweep_cycles /. float_of_int model_cycles in

  (* --- hybrid agreement ---------------------------------------------- *)
  let agree = ref 0 and delta_sum = ref 0 in
  List.iter
    (fun (_, coo, st) ->
      let d = Select.decide ~engine ~st ~mode:`Hybrid machine enc coo in
      (match d.Select.d_agree with
       | Some true -> incr agree
       | _ -> ());
      match d.Select.d_delta_cycles with
      | Some dc -> delta_sum := !delta_sum + abs dc
      | None -> ())
    mats;
  let nmat = List.length mats in
  let agree_rate = float_of_int !agree /. float_of_int nmat in

  (* --- uncached replay (full cold builds) ----------------------------- *)
  let tuned_profiles mode =
    List.map
      (fun spec -> Mix.profile ~variant:`Tuned ~engine ~tune_mode:mode spec)
      specs
  in
  let replay mode =
    let reqs = Mix.hot_cold ~seed ~n (tuned_profiles mode) in
    let config =
      Asap_serve.Config.(
        default |> with_cache_capacity 0 |> with_jobs jobs)
    in
    let t0 = Unix.gettimeofday () in
    let rp = Scheduler.run config reqs in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, rp)
  in
  let sweep_wall, sweep_rp = replay `Sweep in
  let model_wall, model_rp = replay `Model in
  let full_build_ratio = sweep_wall /. model_wall in

  (match !records with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Array.iter
       (fun r -> output_string oc (Scheduler.record_to_line r ^ "\n"))
       model_rp.Scheduler.rp_records;
     (* One snapshot-diff line per mode: every counter the replay moved,
        including serve.tune.* and tune.model.*. *)
     List.iter
       (fun (mode, rp) ->
         let diff =
           Registry.diff
             ~before:(Registry.create ())
             ~after:(Registry.snapshot rp.Scheduler.rp_registry)
         in
         let obj =
           Jsonu.Obj
             [ ("mode", Jsonu.Str (Tuning.mode_to_string mode));
               ("counters",
                Jsonu.Obj (List.map (fun (k, v) -> (k, Jsonu.Int v)) diff)) ]
         in
         output_string oc (Jsonu.to_string obj ^ "\n"))
       [ (`Sweep, sweep_rp); (`Model, model_rp) ];
     close_out oc);

  let ss = sweep_rp.Scheduler.rp_summary
  and ms = model_rp.Scheduler.rp_summary in
  Printf.printf
    "{\n\
    \  \"suite\": \"all-tuned hot_cold zipf n=%d seed=%d (%d matrices)\",\n\
    \  \"engine\": \"%s\",\n\
    \  \"jobs\": %d,\n\
    \  \"decision\": { \"sweep_per_s\": %.1f, \"model_per_s\": %.1f,\n\
    \                 \"ratio\": %.2f },\n\
    \  \"virtual_tune_cycles\": { \"sweep\": %d, \"model\": %d,\n\
    \                            \"ratio\": %.1f },\n\
    \  \"uncached_replay\": { \"sweep\": { \"wall_s\": %.3f, \"builds\": %d },\n\
    \                        \"model\": { \"wall_s\": %.3f, \"builds\": %d },\n\
    \                        \"full_build_ratio\": %.2f },\n\
    \  \"agreement\": { \"matrices\": %d, \"agree\": %d, \"rate\": %.3f,\n\
    \                  \"abs_delta_cycles\": %d }\n\
     }\n"
    n seed nmat
    (Exec.engine_to_string engine)
    jobs sweep_per_s model_per_s decision_ratio sweep_cycles model_cycles
    virtual_ratio sweep_wall ss.Slo.s_builds model_wall ms.Slo.s_builds
    full_build_ratio nmat !agree agree_rate !delta_sum;
  if min_ratio > 0. && decision_ratio < min_ratio then begin
    Printf.eprintf
      "bench/tune: FAIL — model-mode decisions only %.2fx faster than \
       sweep (need %.1fx)\n"
      decision_ratio min_ratio;
    exit 1
  end
