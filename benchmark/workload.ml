(* What every workload gives the timing protocol in main.ml: one pass of
   ops, each runnable through the public entry points or decomposed
   under spans, and the virtual metrics of a pass. *)

module Exec = Asap_sim.Exec
module Machine = Asap_sim.Machine
module Slo = Asap_serve.Slo

type result = {
  digest : string;
    (* the op's virtual quantities; must repeat exactly on every pass *)
  check : unit -> int;
    (* units that miss the dense reference; run once, untimed *)
}

type op = {
  units : int;  (* work units: 1 per cell or artefact, 1 per request *)
  plain : unit -> result;     (* the end-to-end path *)
  untraced : unit -> result;
    (* the work [traced] does, without spans: what trace.overhead
       compares against *)
  traced : Span.t -> result;  (* decomposed into layer calls *)
}

type t = {
  ops : op array;                      (* one pass *)
  warmup : unit -> unit;               (* untimed, part of set-up *)
  virtual_metrics : unit -> (string * float) list;
    (* after the timed phase: every virtual metric of one pass *)
}

(* A run is failed when it raises or its output misses the reference by
   more than this. *)
let tolerance = 1e-9

let digest_of (r : Asap_core.Driver.result) =
  let sum =
    match r.Asap_core.Driver.out_f with
    | Some a -> Array.fold_left ( +. ) 0. a
    | None -> 0.
  in
  let rp = r.Asap_core.Driver.report in
  Printf.sprintf "%d/%d/%h" (Exec.Report.cycles rp)
    (Exec.Report.instructions rp) sum

(* How a kernel run enters the prefetch metrics: the prefetch-free
   baseline, ASaP, or Ainsworth & Jones. Runs sharing a group key differ
   only in that. *)
type role = Base | Asap | Aj | Other

type sample = {
  group : string;
  role : role;
  machine : Machine.t;
  report : Exec.report;
}

let geomean = function
  | [] -> 1.
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0. xs
      /. float_of_int (List.length xs))

(* Baseline cycles / [role] cycles, geomean over the groups having
   both. *)
let speedup samples role =
  let cycles g r =
    List.find_map
      (fun s ->
        if s.group = g && s.role = r then Some (Exec.Report.cycles s.report)
        else None)
      samples
  in
  List.sort_uniq compare (List.map (fun s -> s.group) samples)
  |> List.filter_map (fun g ->
         match (cycles g Base, cycles g role) with
         | Some b, Some x when x > 0 -> Some (float_of_int b /. float_of_int x)
         | _ -> None)
  |> geomean

let mpki samples role =
  let misses, instrs =
    List.fold_left
      (fun (m, i) s ->
        if s.role = role then
          (m + Exec.Report.l2_misses s.report,
           i + Exec.Report.instructions s.report)
        else (m, i))
      (0, 0) samples
  in
  if instrs = 0 then 0. else 1000. *. float_of_int misses /. float_of_int instrs

(* The speedup and prefetch metrics of one pass's kernel runs. *)
let prefetch_metrics samples =
  let issued, useful =
    List.fold_left
      (fun (i, u) s ->
        ( i + Exec.Report.sw_issued s.report,
          u + Exec.Report.sw_useful s.report ))
      (0, 0) samples
  in
  [ ("virtual_speedup", speedup samples Asap);
    ("prefetch.sw_issued", float_of_int issued);
    ("prefetch.accuracy",
     if issued = 0 then 0. else float_of_int useful /. float_of_int issued);
    ("prefetch.l2_mpki_asap", mpki samples Asap);
    ("prefetch.l2_mpki_base", mpki samples Base);
    ("prefetch.aj_speedup", speedup samples Aj) ]

let virtual_ms s = Machine.cycles_to_ms s.machine (Exec.Report.cycles s.report)

(* Virtual latency and capacity of ops run back to back on one
   simulated core: the cells of a grid. *)
let closed_loop_metrics samples =
  let ms = Array.of_list (List.map virtual_ms samples) in
  let total_s = Array.fold_left ( +. ) 0. ms /. 1000. in
  [ ("virtual_ms_p50", Slo.percentile ms ~p:50.);
    ("virtual_ms_p99", Slo.percentile ms ~p:99.);
    ("serve.capacity_rps",
     if total_s = 0. then 0. else float_of_int (Array.length ms) /. total_s) ]
