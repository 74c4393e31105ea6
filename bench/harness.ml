(* Shared benchmark engine.

   Figures 6, 7 and 11 draw from the same (matrix x variant x prefetcher
   config) measurement grid, so results are memoised per process. All
   simulated runs are deterministic, making every table exactly
   reproducible. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Storage = Asap_tensor.Storage
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Hierarchy = Asap_sim.Hierarchy
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Par = Asap_core.Par
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Suite = Asap_workloads.Suite

type hw = Default | Optimized

let hw_name = function Default -> "default" | Optimized -> "optimized"

type vkind = Base | A | Jones

let vkind_name = function
  | Base -> "baseline"
  | A -> "asap"
  | Jones -> "ainsworth-jones"

(* The paper fixes distance 45 for both prefetching variants (§4.3) on the
   real 32 KB-L1 machine; on the capacity-scaled evaluation machine the
   equivalent lookahead is 16 (examples/distance_tuning.ml shows the
   plateau). Both variants use the same distance, as in the paper. *)
let eval_distance = 16

let variant_of ~kernel = function
  | Base -> Pipeline.Baseline
  | A ->
    (match kernel with
     | `Spmv -> Pipeline.Asap { Asap.default with Asap.distance = eval_distance }
     | `Spmm ->
       Pipeline.Asap
         { Asap.default with Asap.strategy = Asap.Outer_only;
           distance = eval_distance })
  | Jones -> Pipeline.Ainsworth_jones { Aj.default with Aj.distance = eval_distance }

let machine_of ~kernel ~threads = function
  | Default -> Machine.gracemont_scaled ~hw:Machine.hw_default ~cores:threads ()
  | Optimized ->
    let hw =
      match kernel with
      | `Spmv -> Machine.hw_optimized
      | `Spmm -> Machine.hw_optimized_spmm
    in
    Machine.gracemont_scaled ~hw ~cores:threads ()

type measurement = {
  m_name : string;
  m_group : string;
  m_nnz : int;
  m_throughput : float;        (* nnz per ms *)
  m_gflops : float;            (* simulated GFLOP/s at the machine clock *)
  m_mpki : float;
  m_report : Exec.report;
}

(* --- Host wall-clock protocol ---------------------------------------- *)

(** [timed f] is [(seconds, f ())], read off the monotonic clock: the
    one host clock of bench/, immune to wall-clock steps. *)
let timed f =
  let t0 = Monotonic_clock.now () in
  let x = f () in
  (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9, x)

(** [measure_wall ~warmup ~reps f] is the median wall-clock seconds of
    one [f ()] call: [warmup] untimed calls first (caches, branch
    predictors, allocator state), then [reps] timed calls, median
    reported so a stray scheduler hiccup cannot skew the figure. This is
    the protocol for steady-state host figures in bench/; one-shot
    figures (a whole replay, a whole grid) use [timed]; simulated
    quantities (cycles, throughput, GFLOP/s) need neither — they are
    deterministic. *)
let measure_wall ?(warmup = 2) ?(reps = 9) (f : unit -> unit) : float =
  for _ = 1 to warmup do f () done;
  let reps = max 1 reps in
  let times = Array.init reps (fun _ -> fst (timed f)) in
  Array.sort compare times;
  times.(reps / 2)

(* Execution knobs, set by the CLI before any cell runs. [engine] selects
   the simulator's execution engine for every cell; [jobs] > 1 lets
   [prewarm] farm cells to that many host domains. *)
let engine = ref Exec.default_engine
let jobs = ref 1

(* Optional JSONL run-record sink (--records FILE): one record per grid
   cell, written when the cell's measurement first lands in the cache —
   always on the calling domain, so records are ordered and the worker
   domains stay write-free. *)
let records : Asap_obs.Run_record.t option ref = ref None

let emit_record key (m : measurement) =
  match !records with
  | None -> ()
  | Some rr ->
    Asap_obs.Run_record.emit rr
      [ ("cell", Asap_obs.Jsonu.Str key);
        ("name", Asap_obs.Jsonu.Str m.m_name);
        ("group", Asap_obs.Jsonu.Str m.m_group);
        ("engine", Asap_obs.Jsonu.Str (Exec.engine_to_string !engine));
        ("nnz", Asap_obs.Jsonu.Int m.m_nnz);
        ("throughput_nnz_per_ms", Asap_obs.Jsonu.Float m.m_throughput);
        ("gflops", Asap_obs.Jsonu.Float m.m_gflops);
        ("l2_mpki", Asap_obs.Jsonu.Float m.m_mpki);
        Asap_obs.Run_record.counters_field (Exec.Report.registry m.m_report) ]

(* Generated matrices, their packed storages, and run results are cached
   per process. All caches live on (and are only touched by) the calling
   domain. *)
let matrix_cache : (string, Coo.t) Hashtbl.t = Hashtbl.create 32
let pack_cache : (string, Storage.t) Hashtbl.t = Hashtbl.create 32
let run_cache : (string, measurement) Hashtbl.t = Hashtbl.create 256

let matrix (e : Suite.entry) =
  match Hashtbl.find_opt matrix_cache e.Suite.name with
  | Some m -> m
  | None ->
    let m = e.Suite.gen () in
    Hashtbl.add matrix_cache e.Suite.name m;
    m

(* Every grid cell packs under CSR, so one packing per matrix serves all
   its cells (SpMV and SpMM alike). *)
let packed (e : Suite.entry) coo =
  match Hashtbl.find_opt pack_cache e.Suite.name with
  | Some st -> st
  | None ->
    let st = Storage.pack (Encoding.csr ()) coo in
    Hashtbl.add pack_cache e.Suite.name st;
    st

(* Matrices are large; once a matrix's runs are done the cache can be
   dropped to bound memory. *)
let drop_matrix name =
  Hashtbl.remove matrix_cache name;
  Hashtbl.remove pack_cache name

let verbose = ref true

let log fmt =
  Printf.ksprintf (fun s -> if !verbose then Printf.eprintf "%s\n%!" s) fmt

(* --- The measurement grid ------------------------------------------- *)

type kernel = [ `Spmv | `Spmm ]

(** One cell of the (matrix x variant x prefetcher config) grid. *)
type cell = {
  c_kernel : kernel;
  c_entry : Suite.entry;
  c_vkind : vkind;
  c_hw : hw;
  c_threads : int;
}

let cell ?(threads = 1) kernel entry vkind hw =
  { c_kernel = kernel; c_entry = entry; c_vkind = vkind; c_hw = hw;
    c_threads = threads }

let cell_key (c : cell) =
  Printf.sprintf "%s/%s/%s/%s/%d"
    (match c.c_kernel with `Spmv -> "spmv" | `Spmm -> "spmm")
    c.c_entry.Suite.name (vkind_name c.c_vkind) (hw_name c.c_hw) c.c_threads

(* Run one cell against an already-generated and packed matrix. Pure
   apart from the simulation itself: safe to call from worker domains
   (it must not touch the caches above). *)
let compute_cell ~engine (c : cell) coo st : measurement =
  let e = c.c_entry and kernel = c.c_kernel and threads = c.c_threads in
  let machine = machine_of ~kernel ~threads c.c_hw in
  let variant = variant_of ~kernel c.c_vkind in
  let enc = Encoding.csr () in
  let spec =
    match kernel with `Spmv -> Driver.Spmv enc | `Spmm -> Driver.Spmm enc
  in
  let r =
    Driver.run
      (Driver.Cfg.make ~engine ~threads ~binary:e.Suite.binary ~st ~machine
         ~variant ())
      spec coo
  in
  { m_name = e.Suite.name; m_group = e.Suite.group; m_nnz = r.Driver.nnz;
    m_throughput = Driver.throughput r;
    m_gflops = Exec.gflops r.Driver.report; m_mpki = Driver.mpki r;
    m_report = r.Driver.report }

(** [measure kernel entry vkind hw] runs one cell of the grid (memoised). *)
let measure ?(threads = 1) kernel (e : Suite.entry) vkind hw : measurement =
  let c = cell ~threads kernel e vkind hw in
  let key = cell_key c in
  match Hashtbl.find_opt run_cache key with
  | Some m -> m
  | None ->
    let coo = matrix e in
    let st = packed e coo in
    log "  running %s ..." key;
    let m = compute_cell ~engine:!engine c coo st in
    Hashtbl.add run_cache key m;
    emit_record key m;
    m

(** [prewarm cells] fills [run_cache] for every not-yet-measured cell,
    farming whole matrices (generate + pack + all their cells) to [!jobs]
    worker domains. Results are merged into the cache in input order on
    the calling domain, so subsequent [measure] calls — and therefore the
    printed tables — are byte-identical to a sequential run. A no-op when
    [!jobs <= 1]: the sequential path keeps its incremental logging. *)
let prewarm (cells : cell list) =
  if !jobs > 1 then begin
    let todo =
      List.filter (fun c -> not (Hashtbl.mem run_cache (cell_key c))) cells
    in
    (* One task per matrix: generate and pack once, then run that
       matrix's cells. Grouping preserves first-appearance order. *)
    let order : string list ref = ref [] in
    let by_entry : (string, cell list ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun c ->
        let name = c.c_entry.Suite.name in
        match Hashtbl.find_opt by_entry name with
        | Some l -> l := c :: !l
        | None ->
          Hashtbl.add by_entry name (ref [ c ]);
          order := name :: !order)
      todo;
    let tasks =
      List.rev_map
        (fun name ->
          let cs = List.rev !(Hashtbl.find by_entry name) in
          (* Reuse main-domain caches read-only: resolved here, before
             any worker starts. *)
          let pre_coo =
            Hashtbl.find_opt matrix_cache
              (List.hd cs).c_entry.Suite.name
          in
          let pre_st = Hashtbl.find_opt pack_cache name in
          (cs, pre_coo, pre_st))
        !order
    in
    if tasks <> [] then begin
      let eng = !engine in
      log "  prewarming %d cells over %d matrices with %d domains ..."
        (List.length todo) (List.length tasks) !jobs;
      let results =
        Par.map ~jobs:!jobs
          (fun (cs, pre_coo, pre_st) ->
            let e = (List.hd cs).c_entry in
            let coo =
              match pre_coo with Some m -> m | None -> e.Suite.gen ()
            in
            let st =
              match pre_st with
              | Some st -> st
              | None -> Storage.pack (Encoding.csr ()) coo
            in
            List.map (fun c -> (cell_key c, compute_cell ~engine:eng c coo st))
              cs)
          (Array.of_list tasks)
      in
      Array.iter
        (List.iter (fun (key, m) ->
             if not (Hashtbl.mem run_cache key) then begin
               Hashtbl.add run_cache key m;
               emit_record key m
             end))
        results
    end
  end

(* --- Matrix selections --------------------------------------------- *)

let quick = ref false

(* In quick mode keep one representative matrix per group. *)
let spmv_entries () =
  if not !quick then Suite.entries
  else
    List.filter_map
      (fun g ->
        match Suite.by_group g with e :: _ -> Some e | [] -> None)
      Suite.groups

let spmm_entries () =
  let all = Suite.spmm_subset in
  if not !quick then all
  else
    List.filteri (fun i _ -> i mod 2 = 0) all

(* The Fig. 6 grid: baseline and ASaP SpMV per matrix, optimized
   prefetchers. *)
let fig6_cells () =
  List.concat_map
    (fun e -> [ cell `Spmv e Base Optimized; cell `Spmv e A Optimized ])
    (spmv_entries ())

(* --- Formatting ----------------------------------------------------- *)

let header title =
  Printf.printf "\n%s\n%s\n%s\n\n" (String.make 78 '=') title
    (String.make 78 '=')

let subheader title = Printf.printf "\n--- %s ---\n\n" title

(** Equal-work harmonic-mean speedup over a list of (base, variant)
    throughput pairs. *)
let ews pairs =
  let base = Array.of_list (List.map fst pairs) in
  let var = Array.of_list (List.map snd pairs) in
  Summary.ews ~base ~variant:var

(** Group rows for the Fig. 7/10/11-style tables: per matrix group, the
    EWS of each labelled series against the first series. *)
let group_table ~groups ~series ~(rows : (string * (string * float) list) list)
    =
  (* rows: (group, [(series label, throughput)]) one per matrix. *)
  let labels = series in
  Printf.printf "%-12s" "group";
  List.iter (fun l -> Printf.printf " %14s" l) labels;
  Printf.printf "\n";
  let print_group gname matching =
    if matching <> [] then begin
      Printf.printf "%-12s" gname;
      let base = List.map (fun (_, tps) -> List.assoc (List.hd labels) tps)
          matching
      in
      List.iter
        (fun l ->
          let v = List.map (fun (_, tps) -> List.assoc l tps) matching in
          let e =
            Summary.ews ~base:(Array.of_list base) ~variant:(Array.of_list v)
          in
          Printf.printf " %14.2f" e)
        labels;
      Printf.printf "   (%d matrices)\n" (List.length matching)
    end
  in
  List.iter
    (fun g -> print_group g (List.filter (fun (g', _) -> g' = g) rows))
    groups;
  (* Aggregates: Selected = the unstructured groups; Others as-is. *)
  print_group "Selected"
    (List.filter (fun (g, _) -> List.mem g Suite.selected_groups) rows)
