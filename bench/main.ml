(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §4 for the experiment index).

   Usage:
     dune exec bench/main.exe                    # everything
     dune exec bench/main.exe -- fig6 fig11      # selected sections
     dune exec bench/main.exe -- --quick all     # reduced matrix set
     dune exec bench/main.exe -- --list          # section list
     dune exec bench/main.exe -- --engine interp # interpreter engine
     dune exec bench/main.exe -- --jobs 4 fig6   # parallel grid prewarm
                                                 # (clamped to host cores)
     dune exec bench/main.exe -- check [suite...] [--baseline FILE]
                                                 # gated suites (check.ml)

   All cells are deterministic, so --engine and --jobs never change a
   table: the engines are cycle-exact replicas of each other, and the
   parallel prewarm merges results on the main domain in input order.

   Absolute numbers come from the simulated, capacity-scaled Gracemont
   machine; the claims under test are the *shapes*: who wins, by what
   factor, and where the crossovers sit (EXPERIMENTS.md records
   paper-vs-measured for each artefact). *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Storage = Asap_tensor.Storage
module Kernel = Asap_lang.Kernel
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Hierarchy = Asap_sim.Hierarchy
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Suite = Asap_workloads.Suite
module Generate = Asap_workloads.Generate
open Harness

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2                                                      *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: system configuration";
  print_endline (Machine.table1 (Machine.gracemont ()));
  print_newline ();
  print_endline
    "Evaluation machine (cache capacities scaled to match the synthetic";
  print_endline "collection's footprints; all other parameters identical):";
  print_newline ();
  print_endline (Machine.table1 (Machine.gracemont_scaled ()))

let table2 () =
  header "Table 2: hardware prefetchers on Alder Lake E-cores";
  subheader "default (out-of-box) state";
  print_endline (Machine.table2 Machine.hw_default);
  subheader "optimized setting for SpMV (L1 NLP and L2 AMP disabled)";
  print_endline (Machine.table2 Machine.hw_optimized);
  subheader "optimized setting for SpMM (L2 AMP kept for 2-D strides)";
  print_endline (Machine.table2 Machine.hw_optimized_spmm)

(* ------------------------------------------------------------------ *)
(* Listings: Figs. 1/3, 5 and 9                                        *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "Figs. 1 & 3: SpMV and its sparsified code per format";
  print_endline (Kernel.to_linalg_string (Kernel.spmv ()));
  List.iter
    (fun enc ->
      subheader (Printf.sprintf "sparsified SpMV, %s" enc.Encoding.name);
      print_string
        (Pipeline.listing (Pipeline.compile (Kernel.spmv ~enc ()) Pipeline.Baseline)))
    [ Encoding.coo (); Encoding.csr (); Encoding.dcsr () ]

let fig5 () =
  header "Fig. 5: ASaP prefetch generation for c[Bj_crd[jj]] (CSR SpMV)";
  let c =
    Pipeline.compile (Kernel.spmv ~enc:(Encoding.csr ()) ())
      (Pipeline.Asap Asap.default)
  in
  print_string (Pipeline.listing c);
  Printf.printf "\nsites instrumented: %d\n" c.Pipeline.n_prefetch_sites

let fig9 () =
  header "Fig. 9: SpMM with outer-loop prefetching (CSR)";
  let c =
    Pipeline.compile (Kernel.spmm ())
      (Pipeline.Asap { Asap.default with Asap.strategy = Asap.Outer_only })
  in
  print_string (Pipeline.listing c);
  let aj = Pipeline.compile (Kernel.spmm ()) (Pipeline.Ainsworth_jones Aj.default) in
  Printf.printf
    "\nASaP outer-loop sites: %d; Ainsworth & Jones sites: %d (the prior\n\
     artifact generates no prefetches for SpMM, matching §5.3).\n"
    c.Pipeline.n_prefetch_sites aj.Pipeline.n_prefetch_sites

(* ------------------------------------------------------------------ *)
(* Fig. 6: SpMV speedup vs L2 MPKI                                     *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "Fig. 6: SpMV speedup (ASaP vs baseline) versus baseline L2 MPKI";
  prewarm (fig6_cells ());
  Printf.printf "%-22s %-10s %9s %9s %9s\n" "matrix" "group" "nnz(k)"
    "L2 MPKI" "speedup";
  let points = ref [] in
  List.iter
    (fun e ->
      let base = measure `Spmv e Base Optimized in
      let asap = measure `Spmv e A Optimized in
      let speedup = asap.m_throughput /. base.m_throughput in
      points := (base.m_mpki, speedup) :: !points;
      Printf.printf "%-22s %-10s %9d %9.2f %8.2fx\n%!" e.Suite.name
        e.Suite.group (base.m_nnz / 1000) base.m_mpki speedup)
    (spmv_entries ());
  let pts = Array.of_list !points in
  let f = Regress.fit pts in
  Printf.printf "\nlinear fit: %s\n" (Regress.to_string f);
  (* The empirical break-even: the highest-MPKI point that still loses and
     the lowest-MPKI point that already wins bracket the crossover the
     paper puts near 4 MPKI. *)
  let lose_hi =
    Array.fold_left (fun m (x, y) -> if y < 1. then Float.max m x else m) 0.
      pts
  in
  let win_lo =
    Array.fold_left
      (fun m (x, y) -> if y > 1. then Float.min m x else m)
      infinity pts
  in
  Printf.printf
    "empirical break-even: slowdowns up to %.1f MPKI, wins from %.1f MPKI \
     (paper: crossover ~4)\n"
    lose_hi win_lo;
  let lo =
    Array.fold_left (fun m (x, y) -> if x < 4. then Float.min m y else m)
      infinity pts
  in
  let hi = Array.fold_left (fun m (_, y) -> Float.max m y) 0. pts in
  Printf.printf
    "min speedup among compute-bound points: %.2fx (paper: >= ~0.9x)\n"
    (if lo = infinity then Float.nan else lo);
  Printf.printf "max speedup: %.2fx (paper: > 2x near 50 MPKI)\n" hi

(* ------------------------------------------------------------------ *)
(* Fig. 7: SpMV EWS by matrix group x prefetcher configuration          *)
(* ------------------------------------------------------------------ *)

let spmv_group_rows series =
  prewarm
    (List.concat_map
       (fun e -> List.map (fun (_, vk, hw) -> cell `Spmv e vk hw) series)
       (spmv_entries ()));
  List.map
    (fun e ->
      let tps =
        List.map
          (fun (label, vk, hw) ->
            (label, (measure `Spmv e vk hw).m_throughput))
          series
      in
      let r = (e.Suite.group, tps) in
      drop_matrix e.Suite.name;
      r)
    (spmv_entries ())

let fig7 () =
  header "Fig. 7: SpMV equal-work harmonic-mean speedup by matrix group";
  print_endline
    "(all speedups relative to baseline-default; paper: ASaP ~1.42x on\n\
     Selected with optimized prefetchers, regression ~0.8x on Others)\n";
  let series =
    [ ("base-default", Base, Default); ("base-opt", Base, Optimized);
      ("asap-default", A, Default); ("asap-opt", A, Optimized) ]
  in
  let rows = spmv_group_rows series in
  group_table ~groups:Suite.groups
    ~series:(List.map (fun (l, _, _) -> l) series)
    ~rows

(* ------------------------------------------------------------------ *)
(* Fig. 8: SpMM speedup vs L2 MPKI                                      *)
(* ------------------------------------------------------------------ *)

let fig8_cells () =
  List.concat_map
    (fun e -> [ cell `Spmm e Base Optimized; cell `Spmm e A Optimized ])
    (spmm_entries ())

let fig8 () =
  header "Fig. 8: SpMM speedup (ASaP vs baseline) versus baseline L2 MPKI";
  prewarm (fig8_cells ());
  Printf.printf "%-22s %-10s %9s %9s %9s\n" "matrix" "group" "nnz(k)"
    "L2 MPKI" "speedup";
  let points = ref [] in
  List.iter
    (fun e ->
      let base = measure `Spmm e Base Optimized in
      let asap = measure `Spmm e A Optimized in
      let speedup = asap.m_throughput /. base.m_throughput in
      points := (base.m_mpki, speedup) :: !points;
      Printf.printf "%-22s %-10s %9d %9.2f %8.2fx\n%!" e.Suite.name
        e.Suite.group (base.m_nnz / 1000) base.m_mpki speedup)
    (spmm_entries ());
  let f = Regress.fit (Array.of_list !points) in
  Printf.printf "\nlinear fit: %s\n" (Regress.to_string f);
  print_endline "paper: y = 0.706x + 0.995, R^2 = 0.776 — a much steeper";
  print_endline "slope than SpMV's, with an intercept near 1.0 (negligible";
  print_endline "overhead): outer-loop prefetching amortises its instructions."

(* ------------------------------------------------------------------ *)
(* Fig. 10: SpMM EWS by group                                           *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  header "Fig. 10: SpMM equal-work harmonic-mean speedup by matrix group";
  print_endline
    "(paper: 1.28x on unstructured groups, 1.02x on the rest; prefetcher\n\
     configuration gains are negligible for SpMM)\n";
  prewarm (fig8_cells ());
  let rows =
    List.map
      (fun e ->
        let tps =
          [ ("base-opt", (measure `Spmm e Base Optimized).m_throughput);
            ("asap-opt", (measure `Spmm e A Optimized).m_throughput) ]
        in
        let r = (e.Suite.group, tps) in
        drop_matrix e.Suite.name;
        r)
      (spmm_entries ())
  in
  group_table ~groups:Suite.groups ~series:[ "base-opt"; "asap-opt" ] ~rows

(* ------------------------------------------------------------------ *)
(* Fig. 11: ASaP vs Ainsworth & Jones (SpMV)                            *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  header "Fig. 11: SpMV EWS — ASaP vs Ainsworth & Jones by matrix group";
  print_endline
    "(paper: ASaP 1.38x vs A&J ~1.02x on Selected under optimized\n\
     prefetchers; A&J loses coverage when segment lengths approach the\n\
     prefetch distance)\n";
  let series =
    [ ("base-opt", Base, Optimized); ("aj-default", Jones, Default);
      ("aj-opt", Jones, Optimized); ("asap-default", A, Default);
      ("asap-opt", A, Optimized) ]
  in
  let rows = spmv_group_rows series in
  group_table ~groups:Suite.groups
    ~series:(List.map (fun (l, _, _) -> l) series)
    ~rows;
  (* §5.3 mechanism: sweep the mean segment length against the fixed
     prefetch distance (45). *)
  subheader "segment-length sweep (semantic vs segment-local bound, §3.2.2)";
  Printf.printf "%-10s %12s %12s %12s\n" "mean deg" "baseline" "segment-loc"
    "semantic";
  (* The column count (= dense-operand footprint) is held fixed and
     memory-bound while the mean row length sweeps across the prefetch
     distance; only the segment-length effect remains. *)
  let nnz_target = if !quick then 400_000 else 800_000 in
  let cols = if !quick then 200_000 else 400_000 in
  List.iter
    (fun deg ->
      let rows_n = nnz_target / deg in
      let coo =
        Generate.uniform ~seed:(9000 + deg) ~rows:rows_n ~cols
          ~nnz:nnz_target ()
      in
      let machine = machine_of ~kernel:`Spmv ~threads:1 Optimized in
      let enc = Encoding.csr () in
      let run variant =
        Driver.run (Driver.Cfg.make ~machine ~variant ()) (Driver.Spmv enc) coo
      in
      let base = run Pipeline.Baseline in
      let seg =
        run (Pipeline.Asap
               { Asap.default with Asap.bound_mode = Asap.Segment_local;
                 distance = eval_distance })
      in
      let sem =
        run (Pipeline.Asap { Asap.default with Asap.distance = eval_distance })
      in
      let tp r = Driver.throughput r in
      Printf.printf "%-10d %12.0f %11.2fx %11.2fx\n%!" deg (tp base)
        (tp seg /. tp base) (tp sem /. tp base))
    (if !quick then [ 4; 32 ] else [ 2; 4; 8; 16; 32; 64; 128 ])

(* ------------------------------------------------------------------ *)
(* Fig. 12: cache-aware roofline, GAP-twitter, multi-threaded           *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  header "Fig. 12: roofline — SpMV on GAP-twitter, 1-8 threads";
  let e = Suite.find "GAP-twitter" in
  let threads = if !quick then [ 1; 2; 4 ] else [ 1; 2; 3; 4; 6; 8 ] in
  prewarm
    (List.concat_map
       (fun t ->
         [ cell ~threads:t `Spmv e Base Optimized;
           cell ~threads:t `Spmv e A Optimized ])
       threads);
  Printf.printf "%-8s %14s %14s %9s %11s %11s\n" "threads" "base nnz/ms"
    "asap nnz/ms" "gain" "AI(f/B)" "GFLOP/s";
  List.iter
    (fun t ->
      let base = measure ~threads:t `Spmv e Base Optimized in
      let asap = measure ~threads:t `Spmv e A Optimized in
      let ai = Exec.arithmetic_intensity asap.m_report in
      let gf = Exec.gflops asap.m_report in
      Printf.printf "%-8d %14.0f %14.0f %8.0f%% %11.4f %11.3f\n%!" t
        base.m_throughput asap.m_throughput
        (100. *. (asap.m_throughput /. base.m_throughput -. 1.))
        ai gf)
    threads;
  let m = Machine.gracemont_scaled () in
  let roof =
    Roofline.of_machine ~freq_ghz:m.Machine.freq_ghz ~width:m.Machine.width
      ~line_bytes:m.Machine.line_bytes ~dram_gap:m.Machine.dram_gap
      ~lat_l2:m.Machine.lat_l2 ~lat_l3:m.Machine.lat_l3 ~threads:1 ()
  in
  Printf.printf "\nroofs (1 thread): peak %.2f GFLOP/s; " roof.Roofline.peak_gflops;
  List.iter
    (fun (c : Roofline.ceiling) ->
      Printf.printf "%s %.1f GB/s  " c.Roofline.c_name c.Roofline.c_gbps)
    roof.Roofline.ceilings;
  print_newline ();
  print_endline
    "(paper: ASaP consistently above baseline with peak gain ~28% at 3\n\
     threads; gains shrink as DRAM bandwidth saturates, and the ASaP\n\
     points sit slightly left — more memory traffic — but higher)"

(* ------------------------------------------------------------------ *)
(* Ablations (§5 design choices; DESIGN.md §5)                          *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablations: ASaP design choices on GAP-twitter SpMV";
  let e = Suite.find "GAP-twitter" in
  let coo = matrix e in
  let machine = machine_of ~kernel:`Spmv ~threads:1 Optimized in
  let enc = Encoding.csr () in
  let tp ?(machine = machine) variant =
    Driver.throughput
      (Driver.run (Driver.Cfg.make ~machine ~variant ()) (Driver.Spmv enc) coo)
  in
  let base = tp Pipeline.Baseline in

  subheader "prefetch distance (§3.2.3: tunable; paper fixes 45)";
  Printf.printf "%-10s %12s\n" "distance" "speedup";
  List.iter
    (fun d ->
      let s = tp (Pipeline.Asap { Asap.default with Asap.distance = d }) in
      Printf.printf "%-10d %11.2fx\n%!" d (s /. base))
    (if !quick then [ 8; 45 ] else [ 4; 8; 16; 32; 45; 64; 128 ]);

  subheader "step-1 crd prefetch (§3.2.1: omitting it degraded performance)";
  let with1 =
    tp (Pipeline.Asap { Asap.default with Asap.distance = eval_distance })
  in
  let without1 =
    tp (Pipeline.Asap
          { Asap.default with Asap.step1 = false; distance = eval_distance })
  in
  Printf.printf "with step 1:    %.2fx\nwithout step 1: %.2fx\n"
    (with1 /. base) (without1 /. base);

  subheader "bound mode (§3.2.2: the paper's core distinction)";
  let seg =
    tp (Pipeline.Asap
          { Asap.default with Asap.bound_mode = Asap.Segment_local;
            distance = eval_distance })
  in
  Printf.printf "semantic bound:      %.2fx\nsegment-local bound: %.2fx\n"
    (with1 /. base) (seg /. base);

  subheader "hardware prefetcher sensitivity (one toggle at a time, ASaP)";
  let toggle label hw =
    let m = Machine.gracemont_scaled ~hw () in
    let t =
      tp ~machine:m
        (Pipeline.Asap { Asap.default with Asap.distance = eval_distance })
    in
    Printf.printf "%-34s %12.0f nnz/ms\n%!" label t
  in
  toggle "optimized (NLP, AMP off)" Machine.hw_optimized;
  toggle "+ L1 NLP on" { Machine.hw_optimized with Machine.l1_nlp = true };
  toggle "+ L2 AMP on" { Machine.hw_optimized with Machine.l2_amp = true };
  toggle "- L1 IPP off" { Machine.hw_optimized with Machine.l1_ipp = false };
  toggle "- MLC streamer off"
    { Machine.hw_optimized with Machine.mlc_streamer = false };
  drop_matrix e.Suite.name;

  subheader "SpMM strategy (innermost- vs outer-loop placement, §5.2)";
  let spmm_e = Suite.find "GAP-twitter" in
  let coo = matrix spmm_e in
  let m = machine_of ~kernel:`Spmm ~threads:1 Optimized in
  let tpm variant =
    Driver.throughput
      (Driver.run (Driver.Cfg.make ~machine:m ~variant ()) (Driver.Spmm enc)
         coo)
  in
  let b = tpm Pipeline.Baseline in
  let outer =
    tpm (Pipeline.Asap
           { Asap.default with Asap.strategy = Asap.Outer_only;
             distance = eval_distance })
  in
  let both =
    tpm (Pipeline.Asap { Asap.default with Asap.distance = eval_distance })
  in
  Printf.printf "baseline:            %12.0f nnz/ms\n" b;
  Printf.printf "outer-loop only:     %11.2fx\n" (outer /. b);
  Printf.printf "both (auto):         %11.2fx\n" (both /. b);
  drop_matrix spmm_e.Suite.name;

  subheader "rank-3 CSF tensor-times-vector (the general case of §3.2.2)";
  let t3 =
    Generate.tensor3 ~seed:12
      ~dims:[| 400; 500; 200_000 |]
      ~nnz:(if !quick then 300_000 else 800_000) ()
  in
  let mt = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let run variant =
    Driver.throughput
      (Driver.run (Driver.Cfg.make ~machine:mt ~variant ()) (Driver.Ttv None)
         t3)
  in
  let bt = run Pipeline.Baseline in
  let at =
    run (Pipeline.Asap { Asap.default with Asap.distance = eval_distance })
  in
  let jt =
    run (Pipeline.Ainsworth_jones { Aj.default with Aj.distance = eval_distance })
  in
  Printf.printf
    "baseline %.0f nnz/ms; asap %.2fx; ainsworth-jones %.2fx\n\
     (three sites, bound chain Bi_pos -> Bj_pos -> Bk_pos)\n"
    bt (at /. bt) (jt /. bt)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (Bechamel): wall-clock of the harness itself        *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Micro-benchmarks (Bechamel, wall clock of the OCaml machinery)";
  let open Bechamel in
  let open Toolkit in
  let coo =
    Generate.power_law ~seed:77 ~rows:2000 ~cols:2000 ~avg_deg:8 ~alpha:2.0 ()
  in
  let enc = Encoding.csr () in
  let st = Storage.pack enc coo in
  let cell_cfg =
    Driver.Cfg.make ~machine:(Machine.gracemont_scaled ())
      ~variant:Pipeline.Baseline ()
  in
  let mk name f = Test.make ~name (Staged.stage f) in
  let tests =
    Test.make_grouped ~name:"asap"
      [ mk "t2-pack-csr" (fun () -> ignore (Storage.pack enc coo));
        mk "f3-sparsify-spmv" (fun () ->
            ignore (Pipeline.compile (Kernel.spmv ~enc ()) Pipeline.Baseline));
        mk "f5-asap-compile" (fun () ->
            ignore
              (Pipeline.compile (Kernel.spmv ~enc ())
                 (Pipeline.Asap Asap.default)));
        mk "f9-aj-pass" (fun () ->
            ignore
              (Pipeline.compile (Kernel.spmv ~enc ())
                 (Pipeline.Ainsworth_jones Aj.default)));
        mk "f6-spmv-cell" (fun () ->
            ignore (Driver.run cell_cfg (Driver.Spmv enc) coo));
        mk "f8-spmm-cell" (fun () ->
            ignore
              (Driver.run { cell_cfg with Driver.Cfg.n = Some 8 }
                 (Driver.Spmm enc) coo));
        mk "t1-storage-iter" (fun () ->
            let n = ref 0 in
            Storage.iter (fun _ _ -> incr n) st) ]
  in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name r ->
      match Analyze.OLS.estimates r with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  Printf.printf "%-28s %16s\n" "benchmark" "ns/run";
  List.iter
    (fun (name, est) -> Printf.printf "%-28s %16.0f\n" name est)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)

let sections : (string * (unit -> unit)) list =
  [ ("table1", table1); ("table2", table2); ("fig3", fig3); ("fig5", fig5);
    ("fig6", fig6); ("fig7", fig7); ("fig8", fig8); ("fig9", fig9);
    ("fig10", fig10); ("fig11", fig11); ("fig12", fig12);
    ("ablation", ablation); ("micro", micro) ]

let usage () =
  prerr_endline
    ("usage: main.exe [--quick] [--no-log] [--list] [--engine "
     ^ Exec.valid_engines ^ "] [--jobs N] [--records FILE] [sections...]\n\
     \       main.exe check [--baseline FILE] [suites...]");
  exit 1

let () =
  (match Array.to_list Sys.argv with
   | _ :: "check" :: args -> exit (Check.main args)
   | _ -> ());
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--no-log" :: rest ->
      verbose := false;
      parse acc rest
    | "--list" :: _ ->
      List.iter (fun (n, _) -> print_endline n) sections;
      exit 0
    | "--engine" :: v :: rest ->
      (match Exec.engine_of_string v with
       | Some e -> engine := e
       | None ->
         Printf.eprintf "unknown engine %s (%s)\n" v Exec.valid_engines;
         exit 1);
      parse acc rest
    | ("--jobs" | "-j") :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n >= 1 ->
         (* Oversubscribing domains buys nothing — every extra domain
            joins OCaml's stop-the-world minor-GC barrier — so clamp to
            the host's parallelism. Tables are identical either way. *)
         jobs := min n (max 1 (Domain.recommended_domain_count ()))
       | _ ->
         Printf.eprintf "bad job count %s\n" v;
         exit 1);
      parse acc rest
    | "--records" :: path :: rest ->
      records := Some (Asap_obs.Run_record.open_path path);
      parse acc rest
    | ("--engine" | "--jobs" | "-j" | "--records") :: [] -> usage ()
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage ()
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let chosen =
    match args with
    | [] | [ "all" ] -> List.map fst sections
    | picks ->
      List.iter
        (fun p ->
          if not (List.mem_assoc p sections) then begin
            Printf.eprintf "unknown section %s (try --list)\n" p;
            exit 1
          end)
        picks;
      picks
  in
  List.iter (fun name -> (List.assoc name sections) ()) chosen;
  let cells = Hashtbl.length run_cache in
  if cells > 0 then begin
    let minstr =
      Hashtbl.fold
        (fun _ m acc -> acc + Exec.Report.instructions m.m_report)
        run_cache 0
      / 1_000_000
    in
    log "grid: %d cells, %d Minstr simulated (engine %s, %d jobs)" cells
      minstr
      (Exec.engine_to_string !engine)
      !jobs
  end;
  (match !records with
   | Some rr ->
     log "records: wrote %d JSONL run records" (Asap_obs.Run_record.count rr);
     Asap_obs.Run_record.close rr;
     records := None
   | None -> ())
