(* asapc — command-line front end.

   Subcommands:
     compile   sparsify a kernel for a format/variant and print the IR
     run       execute a kernel over a Matrix Market file (or a synthetic
               matrix) on the simulated machine and report PMU metrics
     inspect   show a matrix's storage buffers and coordinate tree
     gen       write a synthetic matrix to a Matrix Market file
     serve     replay a JSONL request file through the serving scheduler
     genreqs   write a synthetic hot/cold request mix as JSONL
     passes    list the registered pipeline passes and their parameters *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Storage = Asap_tensor.Storage
module Coord_tree = Asap_tensor.Coord_tree
module Matrix_market = Asap_tensor.Matrix_market
module Kernel = Asap_lang.Kernel
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Hierarchy = Asap_sim.Hierarchy
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Generate = Asap_workloads.Generate
open Cmdliner

(* --- Shared argument parsers ---------------------------------------- *)

let format_conv =
  let parse s =
    match Asap_serve.Request.matrix_encoding_of_format s with
    | Some enc -> Ok enc
    | None -> Error (`Msg (Printf.sprintf "unknown format %S" s))
  in
  Arg.conv (parse, fun fmt e -> Format.pp_print_string fmt e.Encoding.name)

let format_arg =
  Arg.(value & opt format_conv (Encoding.csr ())
       & info [ "f"; "format" ] ~docv:"FORMAT"
           ~doc:"Sparse format: coo, csr, csc, dcsr, or bsr[<bh>x<bw>] \
                 (blocked rows/cols, 4x4 default).")

let kernel_arg =
  Arg.(value
       & opt (enum [ ("spmv", `Spmv); ("spmm", `Spmm); ("sddmm", `Sddmm) ])
           `Spmv
       & info [ "k"; "kernel" ] ~docv:"KERNEL"
           ~doc:"Kernel: spmv, spmm or sddmm.")

let distance_arg =
  Arg.(value & opt int 45
       & info [ "d"; "distance" ] ~docv:"N"
           ~doc:"Prefetch lookahead distance in iterations.")

let strategy_arg =
  Arg.(value
       & opt (enum [ ("inner", Asap.Innermost_only); ("outer", Asap.Outer_only);
                     ("both", Asap.Both) ])
           Asap.Both
       & info [ "strategy" ] ~docv:"S"
           ~doc:"ASaP placement: inner, outer or both.")

let bound_arg =
  Arg.(value
       & opt (enum [ ("semantic", Asap.Semantic);
                     ("segment", Asap.Segment_local) ])
           Asap.Semantic
       & info [ "bound" ] ~docv:"B"
           ~doc:"Step-2 bound: semantic (ASaP) or segment (prior art).")

let variant_arg =
  Arg.(value & opt (enum [ ("baseline", `Baseline); ("asap", `Asap); ("aj", `Aj) ])
         `Baseline
       & info [ "v"; "variant" ] ~docv:"VARIANT"
           ~doc:"Prefetching variant: baseline, asap or aj.")

let engine_conv =
  let parse s =
    match Exec.engine_of_string s with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown engine %S (expected %s)" s
              Exec.valid_engines))
  in
  Arg.conv
    (parse, fun fmt e -> Format.pp_print_string fmt (Exec.engine_to_string e))

let engine_arg =
  Arg.(value & opt engine_conv Exec.default_engine
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: bytecode (flat bytecode, default) or \
                 interp (tree-walking reference). Both are cycle-exact.")

let tune_mode_conv =
  let parse s =
    match Asap_core.Tuning.mode_of_string s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown tune mode %S (expected %s)" s
              Asap_core.Tuning.valid_modes))
  in
  Arg.conv
    ( parse,
      fun fmt m ->
        Format.pp_print_string fmt (Asap_core.Tuning.mode_to_string m) )

let tune_mode_doc =
  "How tuned variants are decided: sweep (profile every candidate \
   distance on a slice), model (predict from one-pass matrix features — \
   no profiling simulations), or hybrid (serve the sweep's decision, \
   record whether the model agreed)."

(* A --pipeline spec is validated against the pass registry right at
   argument parsing, so a typo fails before any matrix is read. *)
let pipeline_conv =
  let parse s =
    match Asap_pass.Runner.resolve s with
    | (_ : Asap_pass.Runner.resolved) -> Ok s
    | exception Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv (parse, Format.pp_print_string)

let pipeline_arg =
  Arg.(value & opt (some pipeline_conv) None
       & info [ "pipeline" ] ~docv:"SPEC"
           ~doc:"Explicit pass-pipeline spec, e.g. \
                 sparsify,asap{d=32},fold,licm,unroll{f=4}. Overrides the \
                 variant's default pipeline; see $(b,asapc passes) for the \
                 registry.")

let specialize_arg =
  Arg.(value & flag
       & info [ "specialize" ]
           ~doc:"Ahead-of-time kernel specialization: bake the runtime \
                 facts that are constant for the artefact (dimension \
                 extents, dense inner extents, the variant's prefetch \
                 distance) into the program — constants folded through \
                 the body, small constant-trip loops fully unrolled, \
                 prefetch hooks stripped when the distance is 0, dead \
                 feeder arithmetic swept — before staging. Results and \
                 reports are exactly those of the generic program; only \
                 virtual cycles (and host time) improve.")

let variant_of v ~distance ~strategy ~bound =
  match v with
  | `Baseline -> Pipeline.Baseline
  | `Asap ->
    Pipeline.Asap
      { Asap.default with Asap.distance; strategy; bound_mode = bound }
  | `Aj -> Pipeline.Ainsworth_jones { Aj.default with Aj.distance }

let matrix_args =
  let mtx =
    Arg.(value & opt (some string) None
         & info [ "m"; "matrix" ] ~docv:"FILE" ~doc:"Matrix Market input file.")
  in
  let gen =
    Arg.(value & opt (some string) None
         & info [ "g"; "gen" ] ~docv:"SPEC"
             ~doc:"Synthetic matrix spec, e.g. powerlaw:100000,8 or \
                   uniform:50000,400000 or banded:100000,2 or road:200000,3.")
  in
  let build mtx gen =
    match (mtx, gen) with
    | Some path, None ->
      (match Matrix_market.read path with
       | coo -> Ok coo
       | exception Matrix_market.Parse_error e ->
         Error (`Msg (Printf.sprintf "%s: %s" path e))
       | exception Sys_error e -> Error (`Msg e))
    | None, Some spec ->
      (match Generate.of_spec spec with
       | Ok coo -> Ok coo
       | Error e -> Error (`Msg e))
    | None, None ->
      (* Default demo matrix: the Fig. 2 example. *)
      Ok (Coo.of_triples ~rows:3 ~cols:3 [ (0, 0, 1.); (0, 2, 2.); (2, 2, 3.) ])
    | Some _, Some _ -> Error (`Msg "give either --matrix or --gen, not both")
  in
  Term.(term_result (const (fun m g -> build m g) $ mtx $ gen))

(* --- compile --------------------------------------------------------- *)

let compile_cmd =
  let run kernel enc v distance strategy bound pipeline specialize =
    let kernel = match kernel with
      | `Spmv -> Kernel.spmv ~enc ()
      | `Spmm -> Kernel.spmm ~enc ()
      | `Sddmm -> Kernel.sddmm ~enc ()
    in
    let variant = variant_of v ~distance ~strategy ~bound in
    let c = Pipeline.compile ?pipeline kernel variant in
    if specialize then begin
      (* No matrix at compile time, so specialize against representative
         extents (every scalar parameter = 8) — enough to show what the
         specializer folds, unrolls and strips for this kernel shape. *)
      let module Specialize = Asap_sim.Specialize in
      let nscalars =
        List.fold_left
          (fun acc p ->
            match p with Asap_ir.Ir.Pscalar _ -> acc + 1 | _ -> acc)
          0 c.Pipeline.fn.Asap_ir.Ir.fn_params
      in
      let facts =
        Specialize.make
          ?distance:(Driver.variant_distance variant)
          ~scalars:(List.init nscalars (fun _ -> 8)) ()
      in
      let fn, st = Specialize.apply facts c.Pipeline.fn in
      print_string (Asap_ir.Printer.to_string fn);
      Printf.printf
        "// specialized (representative extents: every scalar = 8): \
         %d consts folded, %d loops unrolled (%d iterations), %d dead \
         lets swept, %d prefetch hooks stripped\n"
        st.Specialize.sp_folded st.Specialize.sp_unrolled
        st.Specialize.sp_iterations st.Specialize.sp_dce
        st.Specialize.sp_prefetch_stripped
    end
    else begin
      print_string (Pipeline.listing c);
      Printf.printf "// prefetch sites: %d\n" c.Pipeline.n_prefetch_sites
    end
  in
  Cmd.v (Cmd.info "compile" ~doc:"Sparsify a kernel and print the IR")
    Term.(const run $ kernel_arg $ format_arg $ variant_arg $ distance_arg
          $ strategy_arg $ bound_arg $ pipeline_arg $ specialize_arg)

(* --- run ------------------------------------------------------------- *)

let run_cmd =
  let threads_arg =
    Arg.(value & opt int 1 & info [ "t"; "threads" ] ~docv:"T"
           ~doc:"Thread count (dense-outer-loop parallelisation).")
  in
  let hw_arg =
    Arg.(value & opt (enum [ ("default", `D); ("optimized", `O) ]) `O
         & info [ "hw" ] ~docv:"HW" ~doc:"Hardware prefetcher configuration.")
  in
  let check_arg =
    Arg.(value & flag & info [ "check" ] ~doc:"Verify against the reference.")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event JSON of the run to $(docv) \
                   (load it at chrome://tracing or ui.perfetto.dev).")
  in
  let counters_arg =
    Arg.(value & flag
         & info [ "counters" ]
             ~doc:"Dump the full named-counter registry after the run.")
  in
  let run coo kernel enc v distance strategy bound threads hw checkit engine
      trace counters pipeline specialize =
    let hw = match (hw, kernel) with
      | `D, _ -> Machine.hw_default
      | `O, (`Spmv | `Sddmm) -> Machine.hw_optimized
      | `O, `Spmm -> Machine.hw_optimized_spmm
    in
    let machine = Machine.gracemont_scaled ~hw ~cores:(max 1 threads) () in
    let variant = variant_of v ~distance ~strategy ~bound in
    let chrome = Option.map (fun _ -> Asap_obs.Chrome.create ()) trace in
    let obs =
      match chrome with
      | None -> Asap_obs.Sink.null
      | Some c ->
        Asap_obs.Chrome.sink ~pf_name:Asap_sim.Hw_prefetcher.slug_of_id c
    in
    let cfg =
      Driver.Cfg.make ~engine ~threads ~obs ?pipeline ~specialize ~machine
        ~variant ()
    in
    let spec = match kernel with
      | `Spmv -> Driver.Spmv enc
      | `Spmm -> Driver.Spmm enc
      | `Sddmm -> Driver.Sddmm enc
    in
    let r = Driver.run cfg spec coo in
    if checkit then begin
      let err = match kernel with
        | `Spmv -> Driver.check_spmv coo r
        | `Spmm -> Driver.check_spmm coo ~n:8 r
        | `Sddmm -> Driver.check_sddmm coo ~kk:8 r
      in
      Printf.printf "check: max |err| = %g\n" err;
      if err > 1e-6 then exit 1
    end;
    Printf.printf "%s\n" (Exec.summary r.Driver.report);
    Printf.printf "throughput: %.0f nnz/ms  (nnz = %d, threads = %d)\n"
      (Driver.throughput r) r.Driver.nnz threads;
    (match (trace, chrome) with
     | Some path, Some c ->
       Asap_obs.Chrome.write c path;
       Printf.printf "trace: wrote %d events to %s\n"
         (Asap_obs.Chrome.n_events c) path
     | _ -> ());
    if counters then
      Format.printf "%a@?" Exec.Report.pp r.Driver.report
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute a kernel on the simulated machine")
    Term.(const run $ matrix_args $ kernel_arg $ format_arg $ variant_arg
          $ distance_arg $ strategy_arg $ bound_arg $ threads_arg $ hw_arg
          $ check_arg $ engine_arg $ trace_arg $ counters_arg $ pipeline_arg
          $ specialize_arg)

(* --- inspect --------------------------------------------------------- *)

let inspect_cmd =
  let tree_arg =
    Arg.(value & flag & info [ "tree" ]
           ~doc:"Draw the coordinate hierarchy tree (small matrices only).")
  in
  let run coo enc tree =
    let st = Storage.pack enc coo in
    print_endline (Encoding.to_string enc);
    print_endline (Storage.describe st);
    let stats = Coo.matrix_stats coo in
    Printf.printf
      "rows %d, cols %d, nnz %d; row degree min/mean/max %d/%.1f/%d;\n\
       CSR footprint %d bytes\n"
      stats.Coo.s_rows stats.Coo.s_cols stats.Coo.s_nnz stats.Coo.s_row_min
      stats.Coo.s_row_mean stats.Coo.s_row_max stats.Coo.s_footprint_bytes;
    if tree then
      if Coo.nnz coo > 64 then print_endline "(matrix too large for --tree)"
      else print_string (Coord_tree.to_string (Coord_tree.of_storage st))
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Show storage buffers and statistics")
    Term.(const run $ matrix_args $ format_arg $ tree_arg)

(* --- tune ------------------------------------------------------------ *)

let tune_cmd =
  let mode_arg =
    Arg.(value & opt tune_mode_conv Asap_core.Tuning.default_mode
         & info [ "tune-mode" ] ~docv:"MODE" ~doc:tune_mode_doc)
  in
  let features_arg =
    Arg.(value & flag
         & info [ "features" ]
             ~doc:"Also print the extracted feature vector the cost model \
                   predicts from.")
  in
  let run coo enc mode features =
    let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
    let d = Asap_model.Select.decide ~mode machine enc coo in
    if features then
      (match d.Asap_model.Select.d_features with
       | Some f -> Format.printf "%a" Asap_model.Features.pp f
       | None ->
         let f = Asap_model.Features.extract ~machine enc coo in
         Format.printf "%a" Asap_model.Features.pp f);
    print_string (Asap_model.Select.describe d)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Pick a prefetch configuration: profile a slice (§3.2.3), \
             predict from matrix features, or both")
    Term.(const run $ matrix_args $ format_arg $ mode_arg $ features_arg)

(* --- gen ------------------------------------------------------------- *)

let gen_cmd =
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output .mtx path.")
  in
  let run coo out =
    (* The file holds the matrix with duplicates summed; report that. *)
    let coo = Coo.sorted_dedup coo in
    Matrix_market.write out coo;
    Printf.printf "wrote %s (%d x %d, %d nnz)\n" out coo.Coo.dims.(0)
      coo.Coo.dims.(1) (Coo.nnz coo)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Write a synthetic matrix to Matrix Market")
    Term.(const run $ matrix_args $ out_arg)

(* --- passes ---------------------------------------------------------- *)

let passes_cmd =
  let module Pass = Asap_pass.Pass in
  let run () =
    Asap_pass.Builtin.ensure ();
    List.iter
      (fun (p : Pass.t) ->
        Printf.printf "%-10s %-8s %s\n" p.Pass.name (Pass.kind_name p)
          p.Pass.doc;
        List.iter
          (fun (ps : Pass.param_spec) ->
            let domain =
              match ps.Pass.p_syms with
              | [] -> "int"
              | syms -> String.concat "|" syms
            in
            Printf.printf "             %s=%s  %s (%s)\n" ps.Pass.p_name
              (Asap_pass.Spec.pvalue_to_string ps.Pass.p_default)
              ps.Pass.p_doc domain)
          p.Pass.params)
      (Pass.all ())
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"List the registered pipeline passes, their kinds and \
             parameters (with defaults) for --pipeline specs")
    Term.(const run $ const ())

(* --- serve ----------------------------------------------------------- *)

(* "tenant=N,tenant=N" assoc parser, shared by --quotas (ints) and
   genreqs --tenants (float weights). *)
let assoc_conv ~name of_string =
  let parse s =
    let items = String.split_on_char ',' (String.trim s) in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest ->
        (match String.index_opt item '=' with
         | None ->
           Error
             (`Msg (Printf.sprintf "%s: %S is not tenant=value" name item))
         | Some eq ->
           let tenant = String.sub item 0 eq in
           let v = String.sub item (eq + 1) (String.length item - eq - 1) in
           (match of_string v with
            | Some v when tenant <> "" -> go ((tenant, v) :: acc) rest
            | _ ->
              Error
                (`Msg
                   (Printf.sprintf "%s: bad entry %S (want tenant=value)" name
                      item))))
    in
    go [] items
  in
  let print fmt l =
    Format.pp_print_string fmt
      (String.concat "," (List.map (fun (t, _) -> t ^ "=..") l))
  in
  Arg.conv (parse, print)

let serve_cmd =
  let module Scheduler = Asap_serve.Scheduler in
  let module Config = Asap_serve.Config in
  let module Request = Asap_serve.Request in
  let requests_arg =
    Arg.(required & opt (some string) None
         & info [ "requests" ] ~docv:"FILE"
             ~doc:"JSONL item stream: request objects plus optional \
                   {\"kind\": \"update\"} streaming-delta lines (one per \
                   line; blank and # lines skipped).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write per-request records as JSONL to $(docv). Records \
                   carry only virtual-time quantities, so output is \
                   byte-deterministic at any --jobs.")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Host domains for the build pass (scheduling itself is \
                   a sequential virtual-time simulation).")
  in
  let shards_arg =
    Arg.(value & opt int Config.default.Config.shards
         & info [ "shards" ] ~docv:"N"
             ~doc:"Fleet width: shards routed by consistent hashing on \
                   artefact fingerprints, each with its own queue, cache \
                   and servers.")
  in
  let servers_arg =
    Arg.(value & opt int Config.default.Config.servers
         & info [ "servers" ] ~docv:"N" ~doc:"Virtual servers per shard.")
  in
  let queue_arg =
    Arg.(value & opt int Config.default.Config.queue_limit
         & info [ "queue" ] ~docv:"N"
             ~doc:"Per-shard queue depth limit; arrivals past it are shed.")
  in
  let cache_arg =
    Arg.(value & opt int Config.default.Config.cache_capacity
         & info [ "cache" ] ~docv:"N"
             ~doc:"Per-shard compile/tune LRU capacity.")
  in
  let no_steal_arg =
    Arg.(value & flag
         & info [ "no-steal" ]
             ~doc:"Disable cross-shard work stealing (idle shards serving \
                   the longest other queue).")
  in
  let quota_arg =
    Arg.(value & opt (some int) None
         & info [ "quota" ] ~docv:"N"
             ~doc:"Default per-tenant admission quota: at most $(docv) \
                   requests of one tenant queued fleet-wide; arrivals past \
                   it are shed.")
  in
  let quotas_arg =
    Arg.(value & opt (some (assoc_conv ~name:"--quotas" int_of_string_opt))
           None
         & info [ "quotas" ] ~docv:"T=N,..."
             ~doc:"Per-tenant quota overrides, e.g. alpha=8,beta=2.")
  in
  let deadline_policy_arg =
    let policy_conv =
      let parse s =
        match Config.deadline_policy_of_string s with
        | Some p -> Ok p
        | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown deadline policy %S (expected %s)" s
                  Config.valid_deadline_policies))
      in
      Arg.conv
        ( parse,
          fun fmt p ->
            Format.pp_print_string fmt (Config.deadline_policy_to_string p) )
    in
    Arg.(value & opt policy_conv Config.default.Config.deadline_policy
         & info [ "deadline-policy" ] ~docv:"POLICY"
             ~doc:"What happens to a request whose deadline expired while \
                   queued: degrade (serve its prefetch-free baseline, \
                   default), drop (shed at dispatch), or ignore.")
  in
  let no_cache_arg =
    Arg.(value & flag
         & info [ "no-cache" ]
             ~doc:"Disable the cache (and memoised builds and batching): \
                   the honest rebuild-everything baseline.")
  in
  let no_batch_arg =
    Arg.(value & flag
         & info [ "no-batch" ]
             ~doc:"Disable same-fingerprint batching.")
  in
  let summary_arg =
    Arg.(value & flag
         & info [ "summary" ] ~doc:"Print the SLO summary (human form).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome trace_event JSON of the replay: one \
                   track per virtual server, shed instants on the \
                   admission track.")
  in
  let counters_arg =
    Arg.(value & flag
         & info [ "counters" ] ~doc:"Dump the serve.* counter registry.")
  in
  let mode_arg =
    Arg.(value & opt (some tune_mode_conv) None
         & info [ "tune-mode" ] ~docv:"MODE"
             ~doc:(tune_mode_doc
                   ^ " Overrides the tune_mode field of every request; \
                      without it each request's own field (default sweep) \
                      applies."))
  in
  (* "tenant=spec;tenant=spec" — ';' separates entries because ',' is
     the pass separator inside a spec. The first '=' splits tenant from
     spec (specs themselves contain '=' in parameter lists). *)
  let pipelines_arg =
    let tenant_pipelines_conv =
      let parse s =
        let items =
          String.split_on_char ';' (String.trim s)
          |> List.map String.trim
          |> List.filter (fun i -> i <> "")
        in
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | item :: rest ->
            (match String.index_opt item '=' with
             | None ->
               Error
                 (`Msg
                    (Printf.sprintf "--pipelines: %S is not tenant=spec" item))
             | Some eq ->
               let tenant = String.sub item 0 eq in
               let spec =
                 String.sub item (eq + 1) (String.length item - eq - 1)
               in
               if tenant = "" then
                 Error
                   (`Msg
                      (Printf.sprintf "--pipelines: %S names no tenant" item))
               else
                 (match Asap_pass.Runner.resolve spec with
                  | (_ : Asap_pass.Runner.resolved) ->
                    go ((tenant, spec) :: acc) rest
                  | exception Invalid_argument m ->
                    Error
                      (`Msg
                         (Printf.sprintf "--pipelines: tenant %S: %s" tenant m))))
        in
        go [] items
      in
      let print fmt l =
        Format.pp_print_string fmt
          (String.concat ";" (List.map (fun (t, s) -> t ^ "=" ^ s) l))
      in
      Arg.conv (parse, print)
    in
    Arg.(value & opt (some tenant_pipelines_conv) None
         & info [ "pipelines" ] ~docv:"T=SPEC;..."
             ~doc:"Per-tenant pass-pipeline overrides, e.g. \
                   'alpha=sparsify,asap{d=16};beta=sparsify,unroll{f=4}' \
                   (';'-separated — ',' separates passes inside a spec). A \
                   tenant's spec replaces the pipeline of every one of its \
                   requests and enters the artefact fingerprint in \
                   canonical form.")
  in
  let serve_specialize_arg =
    Arg.(value & flag
         & info [ "specialize" ]
             ~doc:"Override every request's specialize field: build and \
                   serve ahead-of-time specialized artefacts (constants \
                   baked in, constant-trip loops unrolled). Enters the \
                   fingerprint, so specialized and generic entries never \
                   share a cache slot. Without the flag each request's \
                   own field applies.")
  in
  let run requests out jobs shards servers queue cache no_cache no_batch
      no_steal quota quotas deadline_policy summary trace counters mode
      pipelines specialize =
    match Request.load_items requests with
    | Error e -> prerr_endline ("asapc serve: " ^ e); exit 1
    | Ok items ->
      let reqs, updates = Request.split_items items in
      let config =
        Config.(
          default |> with_shards shards |> with_servers servers
          |> with_queue_limit queue
          |> with_cache_capacity (if no_cache then 0 else cache)
          |> with_batching (not no_batch)
          |> with_stealing (not no_steal)
          |> with_quota quota
          |> with_quotas (Option.value quotas ~default:[])
          |> with_deadline_policy deadline_policy
          |> with_jobs jobs)
      in
      let reqs =
        List.map
          (Request.override ?tune_mode:mode
             ?specialize:(if specialize then Some true else None)
             ?pipelines)
          reqs
      in
      let chrome = Option.map (fun _ -> Asap_obs.Chrome.create ()) trace in
      let rp = Scheduler.run ?trace:chrome ~updates config reqs in
      (match out with
       | None -> ()
       | Some path ->
         let oc = open_out path in
         Array.iter
           (fun r -> output_string oc (Scheduler.record_to_line r ^ "\n"))
           rp.Scheduler.rp_records;
         close_out oc;
         Printf.printf "records: wrote %d to %s\n"
           (Array.length rp.Scheduler.rp_records) path);
      (match (trace, chrome) with
       | Some path, Some c ->
         Asap_obs.Chrome.write c path;
         Printf.printf "trace: wrote %d events to %s\n"
           (Asap_obs.Chrome.n_events c) path
       | _ -> ());
      if summary then
        Format.printf "%a@." Asap_serve.Slo.pp rp.Scheduler.rp_summary;
      if counters then
        Format.printf "%a@?" Asap_obs.Registry.pp rp.Scheduler.rp_registry;
      if not (summary || counters) then
        let s = rp.Scheduler.rp_summary in
        Printf.printf
          "served %d (%d degraded, %d shed); hit rate %.2f; p95 %.3f ms\n"
          (s.Asap_serve.Slo.s_ok + s.Asap_serve.Slo.s_degraded)
          s.Asap_serve.Slo.s_degraded s.Asap_serve.Slo.s_shed
          (Asap_serve.Slo.hit_rate s) s.Asap_serve.Slo.s_p95_ms
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Replay a JSONL request file through the serving fleet")
    Term.(const run $ requests_arg $ out_arg $ jobs_arg $ shards_arg
          $ servers_arg $ queue_arg $ cache_arg $ no_cache_arg $ no_batch_arg
          $ no_steal_arg $ quota_arg $ quotas_arg $ deadline_policy_arg
          $ summary_arg $ trace_arg $ counters_arg $ mode_arg
          $ pipelines_arg $ serve_specialize_arg)

(* --- genreqs --------------------------------------------------------- *)

let genreqs_cmd =
  let module Mix = Asap_serve.Mix in
  let module Request = Asap_serve.Request in
  let out_arg =
    Arg.(required & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output JSONL path.")
  in
  let n_arg =
    Arg.(value & opt int 200
         & info [ "n" ] ~docv:"N" ~doc:"Number of requests.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.")
  in
  let alpha_arg =
    Arg.(value & opt float 1.2
         & info [ "alpha" ] ~docv:"A" ~doc:"Zipf exponent (hot/cold skew).")
  in
  let gap_arg =
    Arg.(value & opt float 0.05
         & info [ "gap" ] ~docv:"MS"
             ~doc:"Mean exponential inter-arrival gap, virtual ms.")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"MS"
             ~doc:"Attach this relative latency budget to every request.")
  in
  let mode_arg =
    Arg.(value & opt tune_mode_conv Asap_core.Tuning.default_mode
         & info [ "tune-mode" ] ~docv:"MODE"
             ~doc:"Tuning mode stamped on every generated request \
                   (sweep|model|hybrid).")
  in
  let tenants_arg =
    Arg.(value
         & opt (some (assoc_conv ~name:"--tenants" float_of_string_opt)) None
         & info [ "tenants" ] ~docv:"T=W,..."
             ~doc:"Weighted tenant mix each request is drawn from, e.g. \
                   alpha=3,beta=1. Without it every request belongs to the \
                   default tenant (and the RNG stream is unchanged, so old \
                   seeds reproduce old traces byte-for-byte).")
  in
  let updates_arg =
    Arg.(value & opt int 0
         & info [ "updates" ] ~docv:"N"
             ~doc:"Also draw $(docv) streaming matrix updates (batched \
                   deltas, mean gap --update-gap) and interleave them \
                   with the requests by virtual time.")
  in
  let update_gap_arg =
    Arg.(value & opt float 1.0
         & info [ "update-gap" ] ~docv:"MS"
             ~doc:"Mean exponential gap between streaming updates, \
                   virtual ms.")
  in
  let gen_specialize_arg =
    Arg.(value & flag
         & info [ "specialize" ]
             ~doc:"Stamp specialize=true on every generated request \
                   (serve ahead-of-time specialized artefacts).")
  in
  let run out n seed alpha gap deadline engine mode tenants updates
      update_gap specialize =
    let profiles = Mix.default_profiles () in
    let reqs =
      Mix.hot_cold ~alpha ~mean_gap_ms:gap ?deadline_ms:deadline
        ?tenants ~seed ~n profiles
      |> List.map (Request.override ~engine ~tune_mode:mode ~specialize)
    in
    let ups =
      if updates = 0 then []
      else Mix.update_stream ~mean_gap_ms:update_gap ~seed ~n:updates profiles
    in
    (* Interleave by virtual time so the file reads as the stream the
       replay sees; the scheduler orders each class itself either way. *)
    let lines =
      List.merge
        (fun (ta, _) (tb, _) -> compare ta tb)
        (List.map (fun r -> (r.Request.arrival_ms, Request.to_line r)) reqs)
        (List.map
           (fun u ->
             (u.Request.Update.u_at_ms, Request.Update.to_line u))
           ups)
    in
    let oc = open_out out in
    List.iter (fun (_, l) -> output_string oc (l ^ "\n")) lines;
    close_out oc;
    if updates = 0 then Printf.printf "wrote %d requests to %s\n" n out
    else
      Printf.printf "wrote %d requests and %d updates to %s\n" n updates out
  in
  Cmd.v
    (Cmd.info "genreqs"
       ~doc:"Write a synthetic hot/cold request mix as JSONL")
    Term.(const run $ out_arg $ n_arg $ seed_arg $ alpha_arg $ gap_arg
          $ deadline_arg $ engine_arg $ mode_arg $ tenants_arg $ updates_arg
          $ update_gap_arg $ gen_specialize_arg)

let () =
  let info =
    Cmd.info "asapc" ~version:"1.0.0"
      ~doc:"ASaP: automatic software prefetching for sparse tensor kernels"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ compile_cmd; run_cmd; inspect_cmd; gen_cmd; tune_cmd; serve_cmd;
            genreqs_cmd; passes_cmd ]))
