(* Benchmark checks: every gated claim of the repository outside the
   paper's tables, run sequentially in one process.

   Each suite is a function returning rows, one per figure:

     {suite, scenario, metric, unit, clock: "virtual"|"host"|"alloc",
      value, gate?}

   Virtual rows (simulated cycles, counts, replay properties) are
   deterministic, so their gates are exact. Alloc rows count the words a
   call allocates on one domain (Gc.counters after Gc.compact): a pure
   function of code and input, so they are exact too. Host rows are monotonic-clock
   wall times and rates: noisy, so they are either ungated, gated on a
   loose ratio, or marked [regress] — compared with the row of the same
   (suite, scenario, metric) in a baseline file (the committed
   BENCH.jsonl). A regress row absent from the baseline reports
   "no baseline" and passes.

   [main] prints the rows as JSONL on stdout, then every failing row on
   stderr, and returns 1 when any gate failed. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Storage = Asap_tensor.Storage
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Stream = Asap_sim.Stream
module Runtime = Asap_sim.Runtime
module Interp = Asap_sim.Interp
module Bytecode = Asap_sim.Bytecode
module Pipeline = Asap_core.Pipeline
module Bindings = Asap_core.Bindings
module Driver = Asap_core.Driver
module Select = Asap_model.Select
module Cost_model = Asap_model.Cost_model
module Generate = Asap_workloads.Generate
module Printer = Asap_ir.Printer
module Parse = Asap_ir.Parse
module Kernel = Asap_lang.Kernel
module Mix = Asap_serve.Mix
module Scheduler = Asap_serve.Scheduler
module Config = Asap_serve.Config
module Slo = Asap_serve.Slo
module Registry = Asap_obs.Registry
module Run_record = Asap_obs.Run_record
module Jsonu = Asap_obs.Jsonu

(* --- Rows and gates ------------------------------------------------- *)

type clock = Virtual | Host | Alloc
type op = Ge | Gt | Le | Eq

(* [value op bound]; with [regress], [bound] is a tolerance factor on the
   baseline row instead: value <= bound x baseline for [Le], value >=
   baseline / bound for [Ge]. *)
type gate = { op : op; bound : float; regress : bool }

type row = {
  suite : string;
  scenario : string;
  metric : string;
  unit : string;
  clock : clock;
  value : float;
  gate : gate option;
}

let op_string = function Ge -> ">=" | Gt -> ">" | Le -> "<=" | Eq -> "="

let holds op v b =
  match op with Ge -> v >= b | Gt -> v > b | Le -> v <= b | Eq -> v = b

let row_name r = Printf.sprintf "%s/%s/%s" r.suite r.scenario r.metric

let to_json r =
  let gate =
    match r.gate with
    | None -> []
    | Some g ->
      let against = if g.regress then "regress" else "bound" in
      [ ("gate", Jsonu.Obj [ ("op", Jsonu.Str (op_string g.op));
                             (against, Jsonu.Float g.bound) ]) ]
  in
  Jsonu.Obj
    ([ ("suite", Jsonu.Str r.suite); ("scenario", Jsonu.Str r.scenario);
       ("metric", Jsonu.Str r.metric); ("unit", Jsonu.Str r.unit);
       ("clock",
        Jsonu.Str
          (match r.clock with
           | Virtual -> "virtual"
           | Host -> "host"
           | Alloc -> "alloc"));
       ("value", Jsonu.Float r.value) ]
     @ gate)

(* Baseline values by (suite, scenario, metric). *)
type baseline = (string * string * string, float) Hashtbl.t

(* A [null] value (NaN when printed) reads back as NaN. *)
let baseline_of_lines lines : baseline =
  let t = Hashtbl.create 128 in
  let get k conv j = Option.bind (Jsonu.member k j) conv in
  List.iteri
    (fun i line ->
      let key_value j =
        let str k = get k Jsonu.to_str_opt j in
        match (str "suite", str "scenario", str "metric") with
        | Some s, Some sc, Some m ->
          let v = get "value" Jsonu.to_float_opt j in
          Some ((s, sc, m), Option.value ~default:Float.nan v)
        | _ -> None
      in
      match Option.bind (Result.to_option (Jsonu.of_string line)) key_value with
      | Some (k, v) -> Hashtbl.replace t k v
      | None when String.trim line = "" -> ()
      | None -> failwith (Printf.sprintf "baseline line %d: not a row" (i + 1)))
    lines;
  t

let read_baseline path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n' |> baseline_of_lines

(** [evaluate ~baseline rows] is one line per gated row that failed
    ("FAIL ...") or whose regress gate found no baseline row
    ("no baseline ..."), in row order, and the number of failures. *)
let evaluate ~(baseline : baseline) rows =
  let lines = ref [] and failures = ref 0 in
  let say fmt = Printf.ksprintf (fun l -> lines := l :: !lines) fmt in
  List.iter
    (fun r ->
      match r.gate with
      | None -> ()
      | Some g ->
        let base = Hashtbl.find_opt baseline (r.suite, r.scenario, r.metric) in
        if g.regress && base = None then say "no baseline %s" (row_name r)
        else
          let bound, detail =
            match base with
            | Some b when g.regress ->
              let how, bound =
                if g.op = Le then ("x", b *. g.bound) else ("/", b /. g.bound)
              in
              (bound, Printf.sprintf " (baseline %.6g %s %.2f)" b how g.bound)
            | _ -> (g.bound, "")
          in
          if not (holds g.op r.value bound) then begin
            incr failures;
            say "FAIL %s: %.6g %s, need %s %.6g%s" (row_name r) r.value r.unit
              (op_string g.op) bound detail
          end)
    rows;
  (List.rev !lines, !failures)

(* --- Row construction ----------------------------------------------- *)

let row suite ?gate scenario metric unit clock value =
  { suite; scenario; metric; unit; clock; value; gate }

let count n = float_of_int n
let flag b = if b then 1. else 0.

(* Every threshold the suites gate on, at the value it has always had. *)
let min_cache_speedup = 2.0
let min_hit_rate = 0.5
let min_decision_ratio = 3.0
let min_fleet_ratio = 2.0
let min_kernel_ratio = 1.0
let min_unroll_ratio = 1.0
let min_spec_ratio = 1.15
let min_wall_geomean = 1.0
let min_model_within = 0.9     (* share of model picks within tolerance *)
let model_cycle_tolerance = 1.05
let max_err = 1e-9
let max_regress = 1.10
let max_prep_make_words = 1e6  (* O(nnz), not a dense output *)

let gate ?(regress = false) op bound = Some { op; bound; regress }
let ge = gate Ge
let le = gate Le
let equals = gate Eq
let positive = gate Gt 0.
let holds_true = equals 1.

(* Replay sizing shared by the serving suites: seed 11, builds on 4 host
   domains, records compared against a 1-domain replay. *)
let seed = 11
let jobs = 4

let matrix spec =
  match Generate.of_spec spec with
  | Ok coo -> coo
  | Error e -> failwith (Printf.sprintf "bad matrix spec %s: %s" spec e)

let counter rp name = Registry.find rp.Scheduler.rp_registry name

(* The paper's three variants at their default configurations. *)
let asap = Pipeline.Asap Asap_prefetch.Asap.default

let variants =
  [ Pipeline.Baseline; asap;
    Pipeline.Ainsworth_jones Asap_prefetch.Ainsworth_jones.default ]

(* The [?n] run option for a dense inner extent [inner] (SpMM n, SDDMM
   kk); [inner] is 0 for kernels without one. *)
let inner_n inner = if inner > 0 then Some inner else None

(* Max absolute error of [r] against the dense reference. *)
let max_abs_err coo ~inner (r : Driver.result) = function
  | Driver.Spmv _ -> Driver.check_spmv coo r
  | Driver.Spmm _ -> Driver.check_spmm coo ~n:inner r
  | Driver.Sddmm _ -> Driver.check_sddmm coo ~kk:inner r
  | Driver.Ttv _ -> Driver.check_ttv coo r

(** [replay_twice ?updates config reqs] is the wall time and result of
    replaying [reqs] at [jobs] domains, and whether its records are
    byte-identical to a 1-domain replay. Host domains only accelerate the
    build pass; if they ever leak into the records, this trips. *)
let replay_twice ?updates config reqs =
  let run jobs = Scheduler.run ?updates (Config.with_jobs jobs config) reqs in
  let wall, rp = Harness.timed (fun () -> run jobs) in
  let lines rp = Array.map Scheduler.record_to_line rp.Scheduler.rp_records in
  (wall, rp, lines rp = lines (run 1))

(* --- engine: fig6 --quick parity, records, microbench ---------------- *)

(* The --quick Fig. 6 grid under the interpreter (1 job) and the
   bytecode engine (4 jobs), each on cleared caches. Tables are a pure
   function of the measurements, so equal measurements mean identical
   tables. The bytecode leg writes BENCH_records.jsonl as its cells land;
   its wall is the engine's regression gate (observability hooks must
   stay free when off). The Harness knobs stay set: check owns its
   process. *)
let engine () =
  let row = row "engine" in
  let leg engine jobs =
    Hashtbl.reset Harness.run_cache;
    Hashtbl.reset Harness.matrix_cache;
    Hashtbl.reset Harness.pack_cache;
    Harness.engine := engine;
    Harness.jobs := jobs;
    Harness.timed (fun () ->
        let cells = Harness.fig6_cells () in
        Harness.prewarm cells;
        List.map
          (fun c ->
            Harness.measure ~threads:c.Harness.c_threads c.Harness.c_kernel
              c.Harness.c_entry c.Harness.c_vkind c.Harness.c_hw)
          cells)
  in
  Harness.quick := true;
  Harness.verbose := false;
  let interp_wall, interp = leg `Interp 1 in
  (* Truncated, not appended: the file holds this run's records only. *)
  let rr = Run_record.of_channel (open_out "BENCH_records.jsonl") in
  Harness.records := Some rr;
  let bytecode_wall, bytecode =
    leg `Bytecode (min jobs (Domain.recommended_domain_count ()))
  in
  Harness.records := None;
  let records = Run_record.count rr in
  Run_record.close rr;
  let minstr =
    List.fold_left
      (fun acc m -> acc + Exec.Report.instructions m.Harness.m_report)
      0 bytecode
    / 1_000_000
  in
  (* Wall, simulated-instruction rate and ratio of the two engines. *)
  let walls ?gate scenario minstr ti tb =
    [ row scenario "interp_wall_s" "s" Host ti;
      row scenario "bytecode_wall_s" "s" Host tb ?gate;
      row scenario "interp_minstr_per_s" "Minstr/s" Host (minstr /. ti);
      row scenario "bytecode_minstr_per_s" "Minstr/s" Host (minstr /. tb);
      row scenario "bytecode_vs_interp" "x" Host (ti /. tb) ]
  in
  (* Microbench: one SpMV matrix generated and packed once, then each
     engine runs the same baseline/asap/aj cells on fresh hierarchies, so
     the comparison isolates engine cost from workload setup. The pack
     itself is timed on its own. *)
  let rows_n = 60_000 and reps = 2 in
  let coo =
    Generate.power_law ~seed:1 ~rows:rows_n ~cols:rows_n ~avg_deg:8
      ~alpha:2.0 ()
  in
  let enc = Encoding.csr () in
  let st = Storage.pack enc coo in
  (* Host cost of that pack (sort, dedup, serialise), median of 9. *)
  let pack_ns_per_nnz =
    Harness.measure_wall (fun () -> ignore (Storage.pack enc coo))
    *. 1e9 /. count (Coo.nnz coo)
  in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let micro engine =
    let run variant =
      Driver.run (Driver.Cfg.make ~engine ~st ~machine ~variant ())
        (Driver.Spmv enc) coo
    in
    (* Warm up allocators and fault in the matrix once, untimed. *)
    ignore (run Pipeline.Baseline);
    Harness.timed (fun () ->
        let instrs = ref 0 in
        for _ = 1 to reps do
          List.iter
            (fun v ->
              instrs := !instrs + (run v).Driver.report.Exec.rp_instructions)
            variants
        done;
        !instrs)
  in
  let ti, ii = micro `Interp in
  let tb, ib = micro `Bytecode in
  (* The hierarchy on its own: one run's memory-port stream, recorded
     once, replayed into fresh hierarchies (median of 5 replays after one
     untimed); exact when every ready cycle and the statistics repeat. *)
  let hier_replay scenario machine variant spec coo =
    let s, r =
      Stream.record (fun obs ->
          Driver.run (Driver.Cfg.make ~obs ~machine ~variant ()) spec coo)
    in
    let stats = r.Driver.report.Exec.rp_mem in
    let exact = ref (Stream.replay s machine stats) in
    let wall =
      Harness.measure_wall ~warmup:0 ~reps:5 (fun () ->
          if not (Stream.replay s machine stats) then exact := false)
    in
    let scenario = "hier_replay_" ^ scenario in
    [ row scenario "exact" "bool" Virtual (flag !exact) ?gate:holds_true;
      row scenario "accesses" "count" Virtual (count (Stream.length s));
      row scenario "ns_per_access" "ns" Host
        (wall *. 1e9 /. count (Stream.length s)) ]
  in
  let sddmm_coo = matrix "powerlaw:3000,6" in
  let replays =
    hier_replay "spmv_powerlaw_60000" machine asap (Driver.Spmv enc) coo
    @ hier_replay "sddmm_csr_powerlaw_3000" machine asap
        (Driver.Sddmm enc) sddmm_coo
  in
  (* Words one SDDMM Prep.make allocates: its output follows S's
     pattern, so nothing is of dense d0 x d1 size. *)
  let prep_make_words =
    let words () =
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let cfg = Driver.Cfg.make ~machine ~variant:asap () in
    Gc.compact ();
    let w0 = words () in
    let p = Driver.Prep.make cfg (Driver.Sddmm enc) sddmm_coo in
    let w = words () -. w0 in
    ignore (Sys.opaque_identity p);
    w
  in
  (* The engine on its own: the same SpMV under ASaP against the
     one-cycle port, with no hierarchy behind it (median of 9 runs of
     about 0.1 s each after three untimed). *)
  let free_port_minstr_per_s =
    let compiled = Pipeline.compile (Kernel.spmv ~enc ()) asap in
    let cc = compiled.Pipeline.cc in
    let dense =
      [ ("c", Runtime.RF (Array.make rows_n 1.));
        ("a", Runtime.RF (Array.make rows_n 0.)) ]
    in
    let bufs =
      Runtime.layout compiled.Pipeline.fn
        (Bindings.storage_bufs cc st ~binary:false ~dense)
    in
    let prog = Bytecode.compile compiled.Pipeline.fn ~bufs in
    let scalars = Bindings.scalar_args cc ~extents:[| rows_n; rows_n |] in
    let mem = Stream.free_port Asap_obs.Sink.null in
    let run () =
      Bytecode.run ~width:machine.Machine.width ~rob_size:machine.Machine.rob
        ~branch_miss:machine.Machine.branch_miss prog ~scalars ~mem
    in
    let instrs = (run ()).Interp.r_instructions in
    count instrs /. 1e6 /. Harness.measure_wall (fun () -> ignore (run ()))
  in
  let g = "fig6_quick" and m = "spmv_powerlaw_60000"
  and p = "pack_powerlaw_60000" in
  [ row g "tables_identical" "bool" Virtual (flag (interp = bytecode))
      ?gate:holds_true;
    row g "cells" "count" Virtual (count (List.length bytecode));
    row g "simulated_minstr" "Minstr" Virtual (count minstr);
    row g "run_records" "count" Virtual (count records) ?gate:positive ]
  @ walls g (count minstr) interp_wall bytecode_wall
      ?gate:(gate ~regress:true Le max_regress)
  @ [ row m "nnz" "count" Virtual (count (Coo.nnz coo));
      row m "simulated_instructions" "count" Virtual (count ib);
      row m "interp_instructions" "count" Virtual (count ii)
        ?gate:(equals (count ib)) ]
  @ walls m (count ib /. 1e6) ti tb
  @ [ row p "ns_per_nnz" "ns" Host pack_ns_per_nnz
        ?gate:(gate ~regress:true Le max_regress) ]
  @ replays
  @ [ row "free_port_spmv_powerlaw_60000" "minstr_per_s" "Minstr/s" Host
        free_port_minstr_per_s;
      row "prep_make_sddmm_powerlaw_3000" "words" "words" Alloc
        prep_make_words ?gate:(le max_prep_make_words) ]

(* --- serve: hot/cold replay, cache on vs off ------------------------- *)

(* The cache's claim is host work avoided: with it, each distinct
   fingerprint sparsifies/compiles/tunes once; without it, every request
   rebuilds. The mix is Zipf-skewed, so the cached replay must be at
   least [min_cache_speedup] times faster end to end. Virtual scheduling
   quantities (hit rate, latency percentiles) are identical run to run —
   only the wall times vary with the host. *)
let serve () =
  let row = row "serve" in
  let n = 300 in
  let profiles = Mix.default_profiles () in
  let reqs = Mix.hot_cold ~seed ~n profiles in
  let replay cache_capacity =
    let config =
      Config.(default |> with_cache_capacity cache_capacity |> with_jobs jobs)
    in
    (* One warm-up pass faults in code and allocators, untimed. *)
    if cache_capacity > 0 then
      ignore (Scheduler.run config (Mix.hot_cold ~seed ~n:8 profiles));
    let wall, rp = Harness.timed (fun () -> Scheduler.run config reqs) in
    (wall, rp.Scheduler.rp_summary)
  in
  let cw, cs = replay Config.default.Config.cache_capacity in
  let uw, us = replay 0 in
  let rps wall = count n /. wall in
  [ row "cached" "builds" "count" Virtual (count cs.Slo.s_builds);
    row "cached" "hit_rate" "fraction" Virtual (Slo.hit_rate cs)
      ?gate:(ge min_hit_rate);
    row "cached" "p95_ms" "virtual_ms" Virtual cs.Slo.s_p95_ms;
    row "cached" "wall_s" "s" Host cw;
    row "cached" "req_per_s" "req/s" Host (rps cw)
      ?gate:(gate ~regress:true Ge max_regress);
    row "uncached" "builds" "count" Virtual (count us.Slo.s_builds);
    row "uncached" "wall_s" "s" Host uw;
    row "uncached" "req_per_s" "req/s" Host (rps uw);
    row "cache" "speedup" "x" Host (uw /. cw) ?gate:(ge min_cache_speedup) ]

(* --- tune: cost model vs candidate sweep ----------------------------- *)

(* Rank-2 spread mirroring the serve mix: irregular matrices where
   prefetching pays, structured ones where the tuner rolls back. *)
let tune_specs =
  [ "powerlaw:3000,6"; "heavytail:2500,10000,10"; "uniform:2500,12000";
    "banded:2500,8"; "stencil2d:50"; "road:2000,3"; "powerlaw:400,5";
    "uniform:300,1200"; "banded:300,4" ]

(* Three measurements over an all-[`Tuned] request suite:
   - decision throughput (host): tuning decisions per second on
     pre-packed matrices. This is what the cost model exists to improve —
     the sweep runs O(candidates) sliced simulations per decision, the
     model one O(nnz) feature pass — and the [min_decision_ratio] gate
     applies here;
   - uncached replay (host): full cold builds (pack + decide + compile +
     cold run) under each mode. Reported, NOT gated: packing and the cold
     execution dominate both modes, so the end-to-end ratio stays small
     even when decisions get orders of magnitude cheaper;
   - virtual decision cost and hybrid-mode model-vs-sweep agreement;
   - the model's accuracy on full runs: its pick's cycles within 5% of
     the sweep pick's on at least 90% of the matrices, and every sweep
     rollback matched. *)
let tune () =
  let row = row "tune" in
  let n = 120 in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let enc = Encoding.csr () in
  let mats =
    List.map (fun s -> let coo = matrix s in (coo, Storage.pack enc coo))
      tune_specs
  in
  let nmat = List.length mats in
  let reps = max 1 (n / nmat) in
  let decide mode (coo, st) = Select.decide ~st ~mode machine enc coo in
  let time_decisions mode =
    let wall, cycles =
      Harness.timed (fun () ->
          let cycles = ref 0 in
          for _ = 1 to reps do
            List.iter
              (fun m ->
                cycles := !cycles + (decide mode m).Select.d_tune_cycles)
              mats
          done;
          !cycles)
    in
    (count (reps * nmat) /. wall, cycles / reps)
  in
  (* Warm-up: fault in code paths untimed. *)
  ignore (time_decisions `Model);
  let sweep_per_s, sweep_cycles = time_decisions `Sweep in
  let model_per_s, model_cycles = time_decisions `Model in
  let hybrid = List.map (decide `Hybrid) mats in
  let agree =
    List.length (List.filter (fun d -> d.Select.d_agree = Some true) hybrid)
  in
  let delta d = abs (Option.value ~default:0 d.Select.d_delta_cycles) in
  let delta = List.fold_left (fun acc d -> acc + delta d) 0 hybrid in
  let full_cycles (coo, st) variant =
    Exec.Report.cycles
      (Driver.run (Driver.Cfg.make ~st ~machine ~variant ()) (Driver.Spmv enc)
         coo).Driver.report
  in
  (* (model pick within tolerance, sweep rollback the model missed) *)
  let full_run m d =
    let sweep = d.Select.d_chosen in
    let model = (Option.get d.Select.d_model).Cost_model.p_variant in
    let sc = full_cycles m sweep in
    let mc =
      if Cost_model.same_choice sweep model then sc else full_cycles m model
    in
    ( float_of_int mc <= model_cycle_tolerance *. float_of_int sc,
      sweep = Pipeline.Baseline && model <> Pipeline.Baseline )
  in
  let full = List.map2 full_run mats hybrid in
  let within = List.length (List.filter fst full) in
  let missed = List.length (List.filter snd full) in
  let replay mode =
    let profiles =
      List.map (fun spec -> Mix.profile ~variant:`Tuned ~tune_mode:mode spec)
        tune_specs
    in
    let config = Config.(default |> with_cache_capacity 0 |> with_jobs jobs) in
    Harness.timed (fun () ->
        (Scheduler.run config (Mix.hot_cold ~seed ~n profiles))
          .Scheduler.rp_summary.Slo.s_builds)
  in
  let sweep_wall, sweep_builds = replay `Sweep in
  let model_wall, model_builds = replay `Model in
  [ row "decision" "sweep_per_s" "decisions/s" Host sweep_per_s;
    row "decision" "model_per_s" "decisions/s" Host model_per_s;
    row "decision" "ratio" "x" Host (model_per_s /. sweep_per_s)
      ?gate:(ge min_decision_ratio);
    row "virtual_tune_cycles" "sweep" "cycles" Virtual (count sweep_cycles);
    row "virtual_tune_cycles" "model" "cycles" Virtual (count model_cycles);
    row "virtual_tune_cycles" "ratio" "x" Virtual
      (count sweep_cycles /. count model_cycles);
    row "uncached_replay" "sweep_builds" "count" Virtual (count sweep_builds);
    row "uncached_replay" "model_builds" "count" Virtual (count model_builds);
    row "uncached_replay" "sweep_wall_s" "s" Host sweep_wall;
    row "uncached_replay" "model_wall_s" "s" Host model_wall;
    row "uncached_replay" "full_build_ratio" "x" Host
      (sweep_wall /. model_wall);
    row "agreement" "matrices" "count" Virtual (count nmat);
    row "agreement" "agree" "count" Virtual (count agree);
    row "agreement" "rate" "fraction" Virtual (count agree /. count nmat);
    row "agreement" "abs_delta_cycles" "cycles" Virtual (count delta);
    row "model_full_run" "within_5pct" "fraction" Virtual
      (count within /. count nmat) ?gate:(ge min_model_within);
    row "model_full_run" "missed_rollbacks" "count" Virtual (count missed)
      ?gate:(equals 0.) ]

(* --- fleet: sharded fleet vs single shard ---------------------------- *)

(* Both gates are virtual: the 4-shard fleet's virtual throughput
   (served per virtual makespan) must reach [min_fleet_ratio] x the
   single shard's on a trace dense enough to saturate one shard, and its
   records must not depend on host domains. The million-request soak is
   reported, never gated: surviving the volume with a sane summary is
   the point, and its cost scales with host speed. *)
let fleet () =
  let row = row "fleet" in
  let shards = 4 in
  let profiles = Mix.default_profiles () in
  (* Arrivals dense enough (5 us mean gap) that one shard's two servers
     queue-saturate; the fleet's [shards * servers] drain the same trace
     in a fraction of the virtual makespan. *)
  let trace ~seed ~n =
    Mix.hot_cold ~mean_gap_ms:0.005
      ~tenants:[ ("alpha", 3.); ("beta", 1.); ("gamma", 1.) ]
      ~seed ~n profiles
  in
  let config shards =
    Config.(default |> with_shards shards |> with_jobs jobs)
  in
  let reqs = trace ~seed ~n:240 in
  let single_wall, single =
    Harness.timed (fun () -> Scheduler.run (config 1) reqs)
  in
  let fleet_wall, fleet, identical = replay_twice (config shards) reqs in
  let soak_n = 1_000_000 in
  let soak_wall, soak =
    Harness.timed (fun () ->
        Scheduler.run (config shards) (trace ~seed:(seed + 1) ~n:soak_n))
  in
  let summary scenario wall rp =
    let s = rp.Scheduler.rp_summary in
    [ row scenario "served" "count" Virtual
        (count (s.Slo.s_ok + s.Slo.s_degraded));
      row scenario "shed" "count" Virtual (count s.Slo.s_shed);
      row scenario "makespan_ms" "virtual_ms" Virtual s.Slo.s_makespan_ms;
      row scenario "virtual_rps" "req/s" Virtual s.Slo.s_throughput_rps;
      row scenario "wall_s" "s" Host wall ]
  in
  let rps rp = rp.Scheduler.rp_summary.Slo.s_throughput_rps in
  let ss = soak.Scheduler.rp_summary in
  summary "single" single_wall single
  @ summary "fleet" fleet_wall fleet
  @ [ row "fleet" "steals" "count" Virtual
        (count (counter fleet "serve.steal.count"));
      row "fleet" "speedup_vs_single" "x" Virtual (rps fleet /. rps single)
        ?gate:(ge min_fleet_ratio);
      row "fleet" "records_jobs_identical" "bool" Virtual (flag identical)
        ?gate:holds_true;
      row "soak" "requests" "count" Virtual (count soak_n) ]
  @ summary "soak" soak_wall soak
  @ [ row "soak" "hits" "count" Virtual (count ss.Slo.s_hits);
      row "soak" "builds" "count" Virtual (count ss.Slo.s_builds);
      row "soak" "p99_ms" "virtual_ms" Virtual
        (Option.value ~default:Float.nan ss.Slo.s_p99_ms) ]

(* --- kernels: SDDMM and BSR SpMV, streaming updates ------------------ *)

(* Unstructured matrices sized past the scaled caches (Fig. 6/7: ASaP
   wins on the memory-bound "Selected" class and only there). SDDMM rows
   stay moderate because its output is a dense d_i x d_j buffer. *)
let kernel_scenarios =
  Driver.
    [ ("sddmm_csr_uniform", "uniform:4000,40000", Sddmm (Encoding.csr ()), 16);
      ("sddmm_csr_powerlaw", "powerlaw:4000,6", Sddmm (Encoding.csr ()), 16);
      ("spmv_csr_uniform", "uniform:60000,400000", Spmv (Encoding.csr ()), 0);
      ("spmv_bsr2x2_powerlaw", "powerlaw:100000,6",
       Spmv (Encoding.bsr ~bh:2 ~bw:2 ()), 0) ]

(* Each scenario's ASaP variant must be value-correct against the dense
   reference and no slower than baseline in virtual cycles. The
   streaming-update replay must actually invalidate cached entries, never
   serve a wrong-version entry, agree with its own summary, and keep its
   records independent of host domains with updates in flight. *)
let kernels () =
  let row = row "kernels" in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let scenario (name, spec, kspec, inner) =
    let coo = matrix spec in
    let run variant =
      Driver.run (Driver.Cfg.make ~machine ~variant ?n:(inner_n inner) ())
        kspec coo
    in
    let base = run Pipeline.Baseline in
    let asap = run asap in
    let err = max_abs_err coo ~inner asap kspec in
    let bc = base.Driver.report.Exec.rp_cycles
    and ac = asap.Driver.report.Exec.rp_cycles in
    [ row name "nnz" "count" Virtual (count asap.Driver.nnz);
      row name "baseline_cycles" "cycles" Virtual (count bc);
      row name "asap_cycles" "cycles" Virtual (count ac);
      row name "asap_speedup" "x" Virtual (count bc /. count ac)
        ?gate:(ge min_kernel_ratio);
      row name "max_err" "abs" Virtual err ?gate:(le max_err) ]
  in
  let profiles = Mix.default_profiles () in
  let reqs = Mix.hot_cold ~seed ~n:120 profiles in
  let updates = Mix.update_stream ~seed ~n:8 ~mean_gap_ms:0.4 profiles in
  let _, rp, identical = replay_twice ~updates Config.default reqs in
  let s = rp.Scheduler.rp_summary in
  let invalidated = counter rp "serve.cache.invalidated" in
  let u = "serve_updates" in
  List.concat_map scenario kernel_scenarios
  @ [ row u "served" "count" Virtual (count (s.Slo.s_ok + s.Slo.s_degraded));
      row u "hits" "count" Virtual (count s.Slo.s_hits);
      row u "misses" "count" Virtual (count s.Slo.s_misses);
      row u "invalidated" "count" Virtual (count invalidated) ?gate:positive;
      row u "invalidated_summary" "count" Virtual (count s.Slo.s_invalidated)
        ?gate:(equals (count invalidated));
      row u "stale_hits" "count" Virtual
        (count (counter rp "serve.cache.stale_hit")) ?gate:(equals 0.);
      row u "records_jobs_identical" "bool" Virtual (flag identical)
        ?gate:holds_true ]

(* --- pipeline: round-trip identity, unroll/slack exactness ----------- *)

(* Every kernel x variant listing must reprint byte-identically through
   [Parse.func] and be alpha-structurally equal to the compiled function.
   On the banded SpMV microbench, unroll{f=4} and slack{max=8} must be
   value-exact, and the plain "sparsify,unroll{f=4}" pipeline must reach
   cycle parity; the asap unroll ratio is reported but only held to
   value-exactness (the replicated bodies issue prefetches in bursts,
   which costs ~2% on this machine model). *)
let pipeline () =
  let row = row "pipeline" in
  let grid =
    let open Encoding in
    [ Kernel.spmv ~enc:(coo ()) (); Kernel.spmv ~enc:(csr ()) ();
      Kernel.spmv ~enc:(csc ()) (); Kernel.spmv ~enc:(dcsr ()) ();
      Kernel.spmm ~enc:(csr ()) (); Kernel.ttv ~enc:(csf 3) () ]
  in
  let roundtrips =
    List.concat_map
      (fun k ->
        List.map
          (fun v ->
            let c = Pipeline.compile k v in
            let text = Printer.to_string c.Pipeline.fn in
            match Parse.func_result text with
            | Error _ -> false
            | Ok fn -> Printer.to_string fn = text
                       && Parse.equal_func fn c.Pipeline.fn)
          variants)
      grid
  in
  let machine = Machine.gracemont_scaled () in
  let enc = Encoding.csr () in
  (* Banded rows give the long, uniform inner loops unrolling targets;
     sparse short-row shapes are covered (value-exactness only, no parity
     claim) by the differential tests. *)
  let coo = Generate.banded ~seed:7 ~n:1000 ~band:64 () in
  let run ?pipeline variant =
    Driver.run (Driver.Cfg.make ?pipeline ~machine ~variant ())
      (Driver.Spmv enc) coo
  in
  let transformed scenario ?gate variant pass =
    let base = run variant in
    let r =
      run ~pipeline:(Pipeline.spec_of_variant variant ^ "," ^ pass) variant
    in
    [ row scenario "value_exact" "bool" Virtual
        (flag (base.Driver.out_f = r.Driver.out_f)) ?gate:holds_true;
      row scenario "cycle_ratio" "x" Virtual ?gate
        (count base.Driver.report.Exec.rp_cycles
         /. count r.Driver.report.Exec.rp_cycles) ]
  in
  let ok = List.length (List.filter Fun.id roundtrips) in
  [ row "roundtrip" "total" "count" Virtual (count (List.length roundtrips));
    row "roundtrip" "ok" "count" Virtual (count ok)
      ?gate:(equals (count (List.length roundtrips)));
    row "spmv_banded" "nnz" "count" Virtual (count (Coo.nnz coo)) ]
  @ transformed "unroll_f4_baseline" ?gate:(ge min_unroll_ratio)
      Pipeline.Baseline "unroll{f=4}"
  @ transformed "unroll_f4_asap" asap "unroll{f=4}"
  @ transformed "slack_m8_asap" asap "slack{max=8}"

(* --- specialize: specialized vs generic bytecode --------------------- *)

(* (name, matrix, kernel, SpMM n / SDDMM kk, gated).
   The win comes from constant-trip inner loops (SpMM dense columns,
   SDDMM contraction depth, BSR block loops): full unrolling deletes the
   two per-iteration loop-overhead events and the per-entry exit bubble.
   CSR SpMV has no such loop — its inner trips are data-dependent — so it
   rides along ungated as the honest lower bound. spmv_bsr2x3_banded has
   dims divisible by the block sides, so the specializer proves both edge
   clamps away and fully unrolls the bh x bw micro loops. BSR 2x2 on a
   uniform matrix rides ungated: random scatter leaves mostly-singleton
   blocks, where the unroll win is partly offset by the tighter load
   spacing running ahead of the hardware prefetcher. *)
let spec_scenarios =
  Driver.
    [ ("spmm_csr_uniform", "uniform:3000,30000", Spmm (Encoding.csr ()), 8,
       true);
      ("spmm_csr_powerlaw", "powerlaw:3000,8", Spmm (Encoding.csr ()), 8, true);
      ("sddmm_csr_uniform", "uniform:3000,30000", Sddmm (Encoding.csr ()), 8,
       true);
      ("spmv_bsr2x3_banded", "banded:19998,4",
       Spmv (Encoding.bsr ~bh:2 ~bw:3 ()), 0, true);
      ("spmv_bsr2x2_uniform", "uniform:20000,120000",
       Spmv (Encoding.bsr ~bh:2 ~bw:2 ()), 0, false);
      ("spmv_csr_uniform", "uniform:20000,120000", Spmv (Encoding.csr ()), 0,
       false) ]

(* Gated scenarios must be >= [min_spec_ratio] x generic bytecode in
   virtual cycles; every specialized output must be bit-identical to the
   generic one and within [max_err] of the dense reference, with the
   same report under both engines; the steady-state wall geomean
   (Harness.measure_wall protocol) must beat generic; and a warm serve
   replay must serve specialized artefacts from cache with records
   independent of host domains. *)
let specialize () =
  let row = row "specialize" in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let scenario (name, spec, kspec, inner, gated) =
    let coo = matrix spec in
    let cfg ?engine specialize =
      Driver.Cfg.make ?engine ~specialize ?n:(inner_n inner) ~machine
        ~variant:asap ()
    in
    let generic = Driver.run (cfg false) kspec coo in
    let specd = Driver.run (cfg true) kspec coo in
    (* Bit-identical outputs (same operation order). *)
    let identical =
      Option.is_some generic.Driver.out_f
      && generic.Driver.out_f = specd.Driver.out_f
    in
    let err = max_abs_err coo ~inner specd kspec in
    let interp = Driver.run (cfg ~engine:`Interp true) kspec coo in
    let gc = generic.Driver.report.Exec.rp_cycles
    and sc = specd.Driver.report.Exec.rp_cycles in
    (* Steady-state host wall clock: prepare both forms once, then time
       repeated re-executions. *)
    let wall specialize =
      let p = Driver.Prep.make (cfg specialize) kspec coo in
      Harness.measure_wall ~warmup:2 ~reps:12 (fun () ->
          ignore (Driver.Prep.exec p))
    in
    let wall_ratio = wall false /. wall true in
    ( wall_ratio,
      [ row name "nnz" "count" Virtual (count specd.Driver.nnz);
        row name "generic_cycles" "cycles" Virtual (count gc);
        row name "specialized_cycles" "cycles" Virtual (count sc);
        row name "cycle_speedup" "x" Virtual (count gc /. count sc)
          ?gate:(if gated then ge min_spec_ratio else None);
        row name "bit_identical" "bool" Virtual (flag identical)
          ?gate:holds_true;
        row name "max_err" "abs" Virtual err ?gate:(le max_err);
        row name "interp_report_identical" "bool" Virtual
          (flag (interp.Driver.counters = specd.Driver.counters))
          ?gate:holds_true;
        row name "wall_speedup" "x" Host wall_ratio ] )
  in
  let walls, rows = List.split (List.map scenario spec_scenarios) in
  let geomean = Summary.geometric_mean (Array.of_list walls) in
  let profiles =
    List.map (fun p -> { p with Mix.p_specialize = true })
      (Mix.default_profiles ())
  in
  let reqs = Mix.hot_cold ~seed ~n:120 profiles in
  let _, rp, identical = replay_twice Config.default reqs in
  let counted ?gate metric unit clock name =
    row "serve" metric unit clock (count (counter rp name)) ?gate
  in
  List.concat rows
  @ [ row "suite" "wall_speedup_geomean" "x" Host geomean
        ?gate:(gate Gt min_wall_geomean);
      counted "spec_hits" "count" Virtual "serve.spec.hit" ?gate:positive;
      counted "spec_misses" "count" Virtual "serve.spec.miss" ?gate:positive;
      counted "pack_hits" "count" Virtual "serve.pack.hit";
      counted "pack_misses" "count" Virtual "serve.pack.miss";
      counted "spec_build_ns" "ns" Host "serve.spec.build_ns";
      row "serve" "records_jobs_identical" "bool" Virtual (flag identical)
        ?gate:holds_true ]

(* --- Driver --------------------------------------------------------- *)

let suites =
  [ ("engine", engine); ("serve", serve); ("tune", tune); ("fleet", fleet);
    ("kernels", kernels); ("pipeline", pipeline);
    ("specialize", specialize) ]

(** [main args] runs the named suites (all when none) in order, prints
    their rows as JSONL on stdout and the gate verdicts on stderr, and is
    the process exit code: 0 when every gate holds, 1 otherwise. *)
let main args =
  let rec parse baseline picks = function
    | [] -> Some (baseline, List.rev picks)
    | "--baseline" :: path :: rest -> parse (Some path) picks rest
    | s :: rest when List.mem_assoc s suites -> parse baseline (s :: picks) rest
    | _ -> None
  in
  match parse None [] args with
  | None ->
    Printf.eprintf "usage: main.exe check [--baseline FILE] [%s]...\n"
      (String.concat "|" (List.map fst suites));
    2
  | Some (path, picks) ->
    (* Read before any suite runs, so the refresh command can overwrite
       the same file. *)
    let baseline =
      match path with Some p -> read_baseline p | None -> Hashtbl.create 1
    in
    let picks = if picks = [] then List.map fst suites else picks in
    let rows =
      List.concat_map
        (fun s ->
          let wall, rows = Harness.timed (List.assoc s suites) in
          List.iter (fun r -> print_endline (Jsonu.to_string (to_json r))) rows;
          Printf.eprintf "check: %s: %d rows in %.1f s\n%!" s
            (List.length rows) wall;
          (* Each suite starts from a compacted heap, as in a process of
             its own. *)
          Gc.compact ();
          rows)
        picks
    in
    let lines, failures = evaluate ~baseline rows in
    List.iter prerr_endline lines;
    let gated = List.length (List.filter (fun r -> r.gate <> None) rows) in
    Printf.eprintf "check: %d rows, %d gated, %d failed\n%!" (List.length rows)
      gated failures;
    if failures > 0 then 1 else 0
