(* The benchmark's entry point: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--scale full|smoke] [--chrome FILE]

   Set-up (input generation plus one untimed warm-up op) runs three
   times and reports its median. A check pass then runs every op once,
   untimed, and checks its output against the dense reference. The timed
   phase runs whole passes over the ops, one op at a time, until
   [--seconds] have passed (at least one pass); every op's virtual
   quantities must repeat those of the check pass exactly.

   With --trace 0 the result holds the end-to-end metrics, measured on
   the public entry points. With --trace 1 each op runs twice per pass,
   once untraced and once decomposed into per-layer calls under spans,
   and the result holds the per-layer metrics; --chrome writes the spans
   as a Chrome trace. The last line of stdout is the JSON result; the
   lines before it repeat each metric with its unit and sample count. *)

module Jsonu = Asap_obs.Jsonu
module Slo = Asap_serve.Slo
module W = Workload

let workloads =
  [ ("paper-grid", Grid.paper_grid);
    ("small-kernels", Grid.small_kernels);
    ("serve-hot", Serving.serve_hot);
    ("serve-churn", Serving.serve_churn) ]

(* Name, unit. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "ops/s"); ("op_ms_p50", "ms");
    ("peak_heap_mb", "MB"); ("virtual_speedup", "x");
    ("virtual_ms_p50", "virtual_ms"); ("virtual_ms_p99", "virtual_ms") ]

let per_layer =
  [ ("trace.coverage", "fraction"); ("trace.overhead", "fraction");
    ("tensor.pack.share", "fraction"); ("tensor.pack.ns_per_nnz", "ns");
    ("pipeline.compile.share", "fraction");
    ("pipeline.compile.us_per_call", "us");
    ("specialize.apply.share", "fraction"); ("specialize.unrolled", "count");
    ("exec.prepare.share", "fraction"); ("exec.prepare.us_per_call", "us");
    ("exec.run.share", "fraction"); ("exec.run.ms_p50", "ms");
    ("exec.run.minstr_per_s", "Minstr/s");
    ("prefetch.sw_issued", "count"); ("prefetch.accuracy", "fraction");
    ("prefetch.l2_mpki_asap", "mpki"); ("prefetch.l2_mpki_base", "mpki");
    ("prefetch.aj_speedup", "x");
    ("tune.sweep.share", "fraction"); ("tune.model.share", "fraction");
    ("serve.build.count", "count"); ("serve.settle.share", "fraction");
    ("serve.capacity_rps", "req/s");
    ("serve.cache.hit_rate", "fraction"); ("serve.cache.evictions", "count");
    ("serve.cache.invalidated", "count"); ("serve.cache.stale_hits", "count");
    ("serve.pack.hit_rate", "fraction"); ("serve.spec.hit_rate", "fraction");
    ("serve.steals", "count"); ("serve.queue_peak", "count");
    ("serve.batch_max", "count"); ("serve.shed_frac", "fraction");
    ("gc.minor_mb_per_op", "MB"); ("gc.major_collections", "count") ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--scale full|smoke] [--chrome FILE]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  chrome : string option;
}

let parse_args () =
  let rec go acc = function
    | [] -> acc
    | "--workload" :: v :: rest -> go { acc with workload = v } rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
       | Some s -> go { acc with seed = s } rest
       | None -> usage ())
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
       | Some s when s >= 0. -> go { acc with seconds = s } rest
       | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest ->
      go { acc with trace = v = "1" } rest
    | "--scale" :: ("full" | "smoke" as v) :: rest ->
      go { acc with smoke = v = "smoke" } rest
    | "--chrome" :: v :: rest -> go { acc with chrome = Some v } rest
    | _ -> usage ()
  in
  let a =
    go
      { workload = ""; seed = 1; seconds = 10.; trace = false; smoke = false;
        chrome = None }
      (List.tl (Array.to_list Sys.argv))
  in
  if not (List.mem_assoc a.workload workloads) then usage ();
  a

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
let now = Span.now_ns
let seconds_since t0 = float_of_int (now () - t0) /. 1e9

(* Every op first runs once, untimed: its output is checked against the
   dense reference and its digest kept. This pass also grows the heap to
   its working size, so the timed passes start warm. Every timed run
   must then repeat its op's digest exactly. *)
type ledger = {
  digests : string option array;
  mutable attempted : int;
  mutable failed : int;
}

let attempt f = try Ok (f ()) with e -> Error e

let check_pass (w : W.t) lg run =
  Array.iteri
    (fun i op ->
      lg.attempted <- lg.attempted + op.W.units;
      match attempt (fun () -> run op) with
      | Error _ -> lg.failed <- lg.failed + op.W.units
      | Ok (r : W.result) ->
        lg.digests.(i) <- Some r.W.digest;
        lg.failed <- lg.failed + r.W.check ())
    w.W.ops

let settle lg i (op : W.op) res =
  lg.attempted <- lg.attempted + op.W.units;
  match (res, lg.digests.(i)) with
  | Ok (r : W.result), Some d when String.equal d r.W.digest -> ()
  | _ -> lg.failed <- lg.failed + op.W.units

(* Runs whole passes until [seconds] have passed, at least one; [each
   op] runs one op and returns its results. Returns the pass count. *)
let timed_passes ?(after_pass = ignore) ~seconds (w : W.t) lg each =
  let t0 = now () in
  let passes = ref 0 in
  while !passes = 0 || seconds_since t0 < seconds do
    Array.iteri (fun i op -> List.iter (settle lg i op) (each op)) w.W.ops;
    incr passes;
    after_pass ()
  done;
  !passes

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Tail percentiles with at least ten samples beyond them. *)
let tails xs =
  let n = List.length xs in
  List.filter_map
    (fun p ->
      if float_of_int n *. (1. -. (p /. 100.)) >= 10. then
        Some
          (Printf.sprintf "p%g %.4f" p (Slo.percentile (Array.of_list xs) ~p))
      else None)
    [ 90.; 95.; 99. ]

(* Throughput is the median over passes of work units per busy second;
   op time the median over ops of busy ms per work unit. *)
let end_to_end_run a (w : W.t) ~setup_s lg =
  let samples = ref [] and rates = ref [] in
  let busy_ns = ref 0 and units = ref 0 in
  check_pass w lg (fun op -> op.W.plain ());
  let after_pass () =
    rates := (float_of_int !units /. (float_of_int !busy_ns /. 1e9)) :: !rates;
    busy_ns := 0;
    units := 0
  in
  let passes =
    timed_passes ~after_pass ~seconds:a.seconds w lg (fun op ->
        let t0 = now () in
        let r = attempt op.W.plain in
        let dt = now () - t0 in
        busy_ns := !busy_ns + dt;
        units := !units + op.W.units;
        samples :=
          (float_of_int dt /. 1e6 /. float_of_int op.W.units) :: !samples;
        [ r ])
  in
  let virt = w.W.virtual_metrics () in
  Printf.printf "  timed: %d passes, %d ops; units/s per pass: %s\n" passes
    (List.length !samples)
    (String.concat " " (List.rev_map (Printf.sprintf "%.4g") !rates));
  let info = String.concat ", " (tails !samples) in
  if info <> "" then
    Printf.printf "  op_ms tail (n=%d): %s\n" (List.length !samples) info;
  [ ("setup_s", setup_s);
    ("ops_per_s", median !rates);
    ("op_ms_p50", median !samples);
    ("peak_heap_mb", heap_mb ()) ]
  @ virt

let share layers name wall =
  match List.assoc_opt name layers with
  | Some l -> float_of_int l.Span.l_self_ns /. wall
  | None -> 0.

let total layers name =
  match List.assoc_opt name layers with
  | Some l -> float_of_int l.Span.l_total_ns
  | None -> 0.

let per_call_us layers name =
  match List.assoc_opt name layers with
  | Some l when l.Span.l_calls > 0 ->
    float_of_int l.Span.l_total_ns /. 1000. /. float_of_int l.Span.l_calls
  | _ -> 0.

let traced_run a (w : W.t) lg =
  let tr = Span.create () in
  let untraced_ns = ref 0 and traced_ns = ref 0 and units = ref 0 in
  let minor = ref 0. in
  check_pass w lg (fun op -> op.W.traced (Span.create ()));
  let majors0 = (Gc.quick_stat ()).Gc.major_collections in
  let passes =
    timed_passes ~seconds:a.seconds w lg (fun op ->
        let t0 = now () in
        let plain = attempt op.W.untraced in
        untraced_ns := !untraced_ns + (now () - t0);
        let m0 = Gc.minor_words () in
        let traced =
          attempt (fun () ->
              let r, dur = Span.op tr (fun () -> op.W.traced tr) in
              traced_ns := !traced_ns + dur;
              r)
        in
        minor := !minor +. (Gc.minor_words () -. m0);
        units := !units + op.W.units;
        [ plain; traced ])
  in
  let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
  let layers = Span.layers tr in
  let wall = float_of_int !traced_ns in
  let per_pass x = float_of_int x /. float_of_int passes in
  let exec_run = List.assoc_opt "exec.run" layers in
  let run_s = total layers "exec.run" /. 1e9 in
  Printf.printf
    "  traced: %d passes, %d work units, %.3f s traced, %.3f s untraced\n"
    passes !units (wall /. 1e9) (float_of_int !untraced_ns /. 1e9);
  List.iter
    (fun (name, l) ->
      Printf.printf "  layer %-20s calls %7d  total %9.3f ms  self %9.3f ms\n"
        name l.Span.l_calls (float_of_int l.Span.l_total_ns /. 1e6)
        (float_of_int l.Span.l_self_ns /. 1e6))
    layers;
  Option.iter (Asap_obs.Chrome.write (Span.to_chrome tr)) a.chrome;
  let virt = w.W.virtual_metrics () in
  (* Settle is what the replay spent beyond the builds and matrix
     generation that the decomposition timed on their own. *)
  let settle =
    total layers "serve.replay" -. total layers "serve.build"
    -. total layers "workloads.generate"
  in
  [ ("trace.coverage", Span.coverage tr);
    ("trace.overhead", (wall /. float_of_int !untraced_ns) -. 1.);
    ("tensor.pack.share", share layers "tensor.pack" wall);
    ("tensor.pack.ns_per_nnz",
     total layers "tensor.pack"
     /. float_of_int (max 1 (Span.counted tr "tensor.pack.nnz")));
    ("pipeline.compile.share", share layers "pipeline.compile" wall);
    ("pipeline.compile.us_per_call", per_call_us layers "pipeline.compile");
    ("specialize.apply.share", share layers "specialize.apply" wall);
    ("specialize.unrolled", per_pass (Span.counted tr "specialize.unrolled"));
    ("exec.prepare.share", share layers "exec.prepare" wall);
    ("exec.prepare.us_per_call", per_call_us layers "exec.prepare");
    ("exec.run.share", share layers "exec.run" wall);
    ("exec.run.ms_p50",
     (match exec_run with
      | Some l ->
        median (List.map (fun d -> float_of_int d /. 1e6) l.Span.l_durs)
      | None -> 0.));
    ("exec.run.minstr_per_s",
     if run_s = 0. then 0.
     else
       float_of_int (Span.counted tr "exec.run.instructions") /. 1e6 /. run_s);
    ("tune.sweep.share", share layers "tune.sweep" wall);
    ("tune.model.share", share layers "tune.model" wall);
    ("serve.settle.share", settle /. wall);
    ("gc.minor_mb_per_op",
     !minor *. float_of_int (Sys.word_size / 8) /. 1048576.
     /. float_of_int !units);
    ("gc.major_collections", per_pass majors) ]
  @ virt

let () =
  let a = parse_args () in
  let make = List.assoc a.workload workloads in
  Printf.printf "benchmark %s seed %d seconds %g trace %d%s\n%!" a.workload
    a.seed a.seconds (Bool.to_int a.trace) (if a.smoke then " (smoke)" else "");
  let setups = if a.smoke then 1 else 3 in
  let w = ref None and setup_times = ref [] in
  for _ = 1 to setups do
    (* Let the previous set-up's inputs be collected. *)
    w := None;
    let t0 = now () in
    let x = make ~seed:a.seed ~smoke:a.smoke in
    x.W.warmup ();
    setup_times := seconds_since t0 :: !setup_times;
    w := Some x
  done;
  let w = Option.get !w in
  let setup_s = median !setup_times in
  let lg =
    { digests = Array.make (Array.length w.W.ops) None; attempted = 0;
      failed = 0 }
  in
  let measured, catalogue =
    match
      attempt (fun () ->
          if a.trace then traced_run a w lg
          else end_to_end_run a w ~setup_s lg)
    with
    | Ok ms -> (ms, if a.trace then per_layer else end_to_end)
    | Error e ->
      Printf.printf "  error: %s\n" (Printexc.to_string e);
      lg.failed <- max 1 lg.failed;
      ([], if a.trace then per_layer else end_to_end)
  in
  (* A layer the workload never enters reads 0; an end-to-end metric
     must be measured. *)
  let measured =
    if a.trace && measured <> [] then
      List.map
        (fun (name, _) ->
          (name, Option.value (List.assoc_opt name measured) ~default:0.))
        per_layer
    else measured
  in
  let metrics =
    List.filter_map
      (fun (name, unit) ->
        match List.assoc_opt name measured with
        | Some v when Float.is_finite v -> Some (name, v, unit)
        | _ -> None)
      catalogue
  in
  let correct =
    lg.failed = 0 && List.length metrics = List.length catalogue
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-28s %.6g %s\n" name v unit)
    metrics;
  Printf.printf "  setup: median of %d; attempted %d, failed %d\n" setups
    lg.attempted lg.failed;
  print_endline
    (Jsonu.to_string
       (Jsonu.Obj
          [ ("correct", Jsonu.Bool correct);
            ("attempted", Jsonu.Int lg.attempted);
            ("failed", Jsonu.Int lg.failed);
            ("metrics",
             Jsonu.Obj
               (List.map
                  (fun (name, v, unit) ->
                    ( name,
                      Jsonu.Obj
                        [ ("value", Jsonu.Float v); ("unit", Jsonu.Str unit) ]
                    ))
                  metrics)) ]));
  if not correct then exit 1
