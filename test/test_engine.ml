(* Differential tests for the flat-bytecode engine (Bytecode) against the
   tree-walking interpreter (Interp): both must agree cycle-exactly and
   value-exactly on every kernel, format and prefetch variant, single-
   and multi-core, and must raise identical traps and faults on the same
   inputs, also under a memory port with address-dependent latencies.
   Also checks that the benchmark grid's domain-parallel prewarm
   reproduces sequential measurements bit for bit. *)

module Ir = Asap_ir.Ir
module Builder = Asap_ir.Builder
module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Storage = Asap_tensor.Storage
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Interp = Asap_sim.Interp
module Bytecode = Asap_sim.Bytecode
module Runtime = Asap_sim.Runtime
module Specialize = Asap_sim.Specialize
module Pipeline = Asap_core.Pipeline
module Bindings = Asap_core.Bindings
module Driver = Asap_core.Driver
module Kernel = Asap_lang.Kernel
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Generate = Asap_workloads.Generate
module Suite = Asap_workloads.Suite

let check = Alcotest.(check bool)
let check_s = Alcotest.(check string)

let machine = Machine.gracemont_scaled ()

let small_matrix seed =
  Generate.power_law ~seed ~rows:300 ~cols:300 ~avg_deg:6 ~alpha:2.0 ()

let variants =
  [ ("baseline", Pipeline.Baseline);
    ("asap", Pipeline.Asap { Asap.default with Asap.distance = 8 });
    ("aj", Pipeline.Ainsworth_jones { Aj.default with Aj.distance = 8 }) ]

let encodings () =
  [ Encoding.coo (); Encoding.csr (); Encoding.dcsr () ]

(* Reports and outputs are plain data, so structural equality is the
   whole cycle-exactness and value-exactness contract at once: cycles,
   instruction mix, every cache/MSHR/prefetcher counter, and the kernel
   output down to float summation order. *)
let same_result name (a : Driver.result) (b : Driver.result) =
  check (name ^ ": report") true (a.Driver.report = b.Driver.report);
  check (name ^ ": nnz") true (a.Driver.nnz = b.Driver.nnz);
  check (name ^ ": out_f") true (a.Driver.out_f = b.Driver.out_f);
  check (name ^ ": out_b") true (a.Driver.out_b = b.Driver.out_b)

(* Run [f] under both engines and require the bytecode engine to
   reproduce the interpreter exactly. *)
let two_way name (f : Exec.engine -> Driver.result) =
  same_result (name ^ " bytecode") (f `Interp) (f `Bytecode)

let cfg ?threads ?binary ?n ?specialize ?(machine = machine) engine variant =
  Driver.Cfg.make ~engine ?threads ?binary ?n ?specialize ~machine ~variant ()

let test_differential_spmv () =
  let coo = small_matrix 21 in
  List.iter
    (fun enc ->
      List.iter
        (fun (vn, v) ->
          two_way
            (Printf.sprintf "spmv %s/%s" enc.Encoding.name vn)
            (fun engine -> Driver.run (cfg engine v) (Driver.Spmv enc) coo))
        variants)
    (encodings ())

let test_differential_spmm () =
  let coo = small_matrix 22 in
  List.iter
    (fun enc ->
      List.iter
        (fun (vn, v) ->
          two_way
            (Printf.sprintf "spmm %s/%s" enc.Encoding.name vn)
            (fun engine ->
              Driver.run (cfg ~n:4 engine v) (Driver.Spmm enc) coo))
        variants)
    (encodings ())

let test_differential_binary () =
  let coo = small_matrix 23 in
  List.iter
    (fun (vn, v) ->
      two_way ("binary spmv " ^ vn) (fun engine ->
          Driver.run (cfg ~binary:true engine v)
            (Driver.Spmv (Encoding.csr ())) coo))
    variants

let test_differential_ttv () =
  let coo =
    Generate.tensor3 ~seed:24 ~dims:[| 20; 30; 40 |] ~nnz:500 ()
  in
  List.iter
    (fun (vn, v) ->
      two_way ("ttv " ^ vn) (fun engine ->
          Driver.run (cfg engine v) (Driver.Ttv None) coo))
    variants

let test_differential_multicore () =
  (* Four slices on a shared hierarchy: the effect-handler scheduler must
     interleave identically whichever engine drives the fibers, on the
     generic and on the specialized (constant-bound) program. *)
  let coo = small_matrix 25 in
  let machine4 = Machine.gracemont_scaled ~cores:4 () in
  List.iter
    (fun specialize ->
      List.iter
        (fun (vn, v) ->
          let vn = if specialize then vn ^ " specialized" else vn in
          let run engine =
            Driver.run
              (cfg ~threads:4 ~specialize ~machine:machine4 engine v)
              (Driver.Spmv (Encoding.csr ())) coo
          in
          two_way ("multicore spmv " ^ vn) run;
          check ("multicore " ^ vn ^ ": 4 threads") true
            ((run `Bytecode).Driver.report.Asap_sim.Exec.rp_threads = 4))
        variants)
    [ false; true ]

let test_multicore_deterministic () =
  (* Two invocations of the same 4-slice run must agree exactly — the
     scheduler has no hidden host-order dependence. *)
  let coo = small_matrix 26 in
  let machine4 = Machine.gracemont_scaled ~cores:4 () in
  let v = Pipeline.Asap { Asap.default with Asap.distance = 8 } in
  let run () =
    Driver.run (cfg ~threads:4 ~machine:machine4 Exec.default_engine v)
      (Driver.Spmv (Encoding.csr ())) coo
  in
  same_result "multicore repeat" (run ()) (run ())

(* --- Traps and faults ------------------------------------------------- *)

(* Every engine must fail the same way on the same bad program: same
   exception, same message, raised from the same simulated point. *)
let outcome_of engine fn ~bufs ~scalars =
  match Exec.run ~engine machine fn ~bufs ~scalars with
  | (_ : Exec.report) -> "ok"
  | exception Interp.Trap m -> "trap: " ^ m
  | exception Runtime.Fault m -> "fault: " ^ m

let same_outcome name expected fn mk_bufs scalars =
  List.iter
    (fun engine ->
      check_s
        (Printf.sprintf "%s (%s)" name (Exec.engine_to_string engine))
        expected
        (outcome_of engine fn ~bufs:(mk_bufs ()) ~scalars))
    [ `Interp; `Bytecode ]

let test_trap_fault_parity () =
  (* Division by zero inside a loop body. *)
  let fn_div, div_buf =
    let b = Builder.create () in
    let out = Builder.buf b "out" Ir.EIdx64 in
    let n = Builder.scalar_param b "n" Ir.Index in
    Builder.for0 b "i" (Builder.index b 0) n (fun i ->
        let q = Builder.ibin b Ir.Idiv n i in
        Builder.store b out (Builder.index b 0) q);
    (Builder.finish b "div_by_zero", out)
  in
  same_outcome "div by zero" "trap: division by zero" fn_div
    (fun () -> [ (div_buf, Runtime.RI (Array.make 1 0)) ])
    [ 3 ];
  (* Non-positive loop step (a dynamic step of zero). *)
  let fn_step, step_buf =
    let b = Builder.create () in
    let out = Builder.buf b "out" Ir.EIdx64 in
    let s = Builder.scalar_param b "s" Ir.Index in
    Builder.for0 b ~step:s "i" (Builder.index b 0) (Builder.index b 4)
      (fun i -> Builder.store b out (Builder.index b 0) i);
    (Builder.finish b "zero_step", out)
  in
  same_outcome "zero step" "trap: non-positive loop step" fn_step
    (fun () -> [ (step_buf, Runtime.RI (Array.make 1 0)) ])
    [ 0 ];
  (* Out-of-bounds load: the address is observed, then the engine faults
     with the buffer's name and extent. *)
  let fn_load, load_bufs =
    let b = Builder.create () in
    let src = Builder.buf b "src" Ir.EF64 in
    let out = Builder.buf b "out" Ir.EF64 in
    let x = Builder.load b src (Builder.index b 5) in
    Builder.store b out (Builder.index b 0) x;
    (Builder.finish b "oob_load", (src, out))
  in
  same_outcome "oob load" "fault: load src[5] out of bounds [0, 3)" fn_load
    (fun () ->
      let src, out = load_bufs in
      [ (src, Runtime.RF [| 1.; 2.; 3. |]);
        (out, Runtime.RF (Array.make 1 0.)) ])
    [];
  (* Out-of-bounds store. *)
  let fn_store, store_buf =
    let b = Builder.create () in
    let out = Builder.buf b "out" Ir.EF64 in
    Builder.store b out (Builder.index b 2) (Builder.f64 b 7.5);
    (Builder.finish b "oob_store", out)
  in
  same_outcome "oob store" "fault: store out[2] out of bounds [0, 2)" fn_store
    (fun () -> [ (store_buf, Runtime.RF (Array.make 2 0.)) ])
    []

(* --- Carried values --------------------------------------------------- *)

let test_carried_values () =
  (* A counted loop carrying a float accumulator and an int counter,
     feeding a while loop that carries both onward — the full carried
     init/yield/result plumbing of both loop forms, in both engines. *)
  let fn, (src_buf, out_buf) =
    let b = Builder.create () in
    let src = Builder.buf b "src" Ir.EF64 in
    let out = Builder.buf b "out" Ir.EF64 in
    let n = Builder.scalar_param b "n" Ir.Index in
    let zero = Builder.index b 0 and one = Builder.index b 1 in
    let finals =
      Builder.for_ b "i" zero n
        ~carried:
          [ ("acc", Ir.F64, Builder.f64 b 0.25); ("cnt", Ir.Index, zero) ]
        (fun i args ->
          match args with
          | [ acc; cnt ] ->
            let x = Builder.load b src i in
            [ Builder.fadd b acc x; Builder.iadd b cnt one ]
          | _ -> assert false)
    in
    (match finals with
     | [ acc; cnt ] ->
       let ws =
         Builder.while_ b
           [ ("c", Ir.Index, cnt); ("s", Ir.F64, acc) ]
           (fun args ->
             match args with
             | [ c; _ ] -> Builder.icmp b Ir.Sgt c zero
             | _ -> assert false)
           (fun args ->
             match args with
             | [ c; s ] -> [ Builder.isub b c one; Builder.fadd b s s ]
             | _ -> assert false)
       in
       (match ws with
        | [ c; s ] ->
          Builder.store b out zero s;
          Builder.store b out one (Builder.cast b Ir.F64 c)
        | _ -> assert false)
     | _ -> assert false);
    (Builder.finish b "carried", (src, out))
  in
  let src_data = [| 0.5; 1.5; 2.5; 3.5 |] in
  let run engine =
    let out = Array.make 2 0. in
    let bufs =
      [ (src_buf, Runtime.RF (Array.copy src_data));
        (out_buf, Runtime.RF out) ]
    in
    let r = Exec.run ~engine machine fn ~bufs ~scalars:[ 4 ] in
    (r, out)
  in
  let r_i, out_i = run `Interp in
  let r_b, out_b = run `Bytecode in
  (* (0.25 + 8.0) doubled 4 times, and the counter drained to 0. *)
  check "carried: expected value" true (out_i = [| 132.; 0. |]);
  check "carried: bytecode report" true (r_i = r_b);
  check "carried: bytecode out" true (out_i = out_b)

(* --- Variable-latency differential ------------------------------------ *)

let test_variable_latency () =
  (* Bytecode must equal the interpreter, report and output, against a
     memory port with address-dependent latencies, so any divergence in
     issue/retire order shows up. CSR SpMV covers the compressed-level
     loops; specialized bsr2x2 SpMV covers loops whose bounds are literal
     constants (baked into the bytecode loop table). *)
  let coo = small_matrix 27 in
  let rows = coo.Coo.dims.(0) and cols = coo.Coo.dims.(1) in
  let mem =
    { Interp.m_load = (fun ~pc:_ ~addr ~at -> at + 2 + (addr land 31));
      m_store = (fun ~pc:_ ~addr:_ ~at:_ -> ());
      m_prefetch = (fun ~addr:_ ~locality:_ ~at:_ -> ()) }
  in
  let case name enc ~specialize =
    let st = Storage.pack enc coo in
    let compiled = Pipeline.compile (Kernel.spmv ~enc ()) Pipeline.Baseline in
    let scalars =
      Bindings.scalar_args compiled.Pipeline.cc ~extents:[| rows; cols |]
    in
    let fn = compiled.Pipeline.fn in
    let fn =
      if specialize then fst (Specialize.apply (Specialize.make ~scalars ()) fn)
      else fn
    in
    let fresh () =
      let out = Array.make rows 0. in
      let dense =
        [ ("c", Runtime.RF (Array.init cols (fun j -> float_of_int (j mod 7))));
          ("a", Runtime.RF out) ]
      in
      let bufs =
        Bindings.storage_bufs compiled.Pipeline.cc st ~binary:false ~dense
      in
      (Runtime.layout fn bufs, out)
    in
    let bound_i, out_i = fresh () in
    let r_i = Interp.run fn ~bufs:bound_i ~scalars ~mem in
    let bound_b, out_b = fresh () in
    let r_b = Bytecode.run (Bytecode.compile fn ~bufs:bound_b) ~scalars ~mem in
    check (name ^ ": bytecode report = interp") true (r_b = r_i);
    check (name ^ ": bytecode output = interp") true (out_b = out_i)
  in
  case "csr" (Encoding.csr ()) ~specialize:false;
  case "specialized bsr2x2" (Encoding.bsr ~bh:2 ~bw:2 ()) ~specialize:true

(* --- Pipeline passes -------------------------------------------------- *)

let run_pipeline ?pipeline engine v coo =
  Driver.run
    (Driver.Cfg.make ~engine ?pipeline ~machine ~variant:v ())
    (Driver.Spmv (Encoding.csr ())) coo

let test_differential_pipeline () =
  (* Every registered IR pass, alone and in the default optimisation
     stack, must be two-way cycle-exact — and, being non-semantic
     rewrites, value-exact against the unpiped baseline. *)
  let coo = small_matrix 28 in
  let pipelines =
    [ "sparsify,fold"; "sparsify,licm"; "sparsify,unroll{f=4}";
      "sparsify,slack";
      "sparsify,asap{d=8},fold,licm,unroll{f=2},slack";
      "sparsify,aj{d=8},fold,licm" ]
  in
  List.iter
    (fun p ->
      two_way ("pipeline " ^ p) (fun engine ->
          run_pipeline ~pipeline:p engine Pipeline.Baseline coo))
    pipelines;
  let base = run_pipeline `Interp Pipeline.Baseline coo in
  List.iter
    (fun p ->
      let r = run_pipeline ~pipeline:p `Interp Pipeline.Baseline coo in
      check ("pipeline " ^ p ^ ": value-exact vs baseline") true
        (r.Driver.out_f = base.Driver.out_f))
    pipelines

let test_pipeline_matches_variant () =
  (* A variant run with its own canonical spec passed explicitly must be
     indistinguishable from the implicit-pipeline run, in both engines. *)
  let coo = small_matrix 29 in
  List.iter
    (fun (vn, v) ->
      let spec = Pipeline.spec_of_variant v in
      List.iter
        (fun engine ->
          same_result
            (Printf.sprintf "explicit %s (%s)" vn
               (Asap_sim.Exec.engine_to_string engine))
            (run_pipeline engine v coo)
            (run_pipeline ~pipeline:spec engine v coo))
        [ `Interp; `Bytecode ])
    variants

(* --- Engine names ------------------------------------------------------ *)

let test_engine_names () =
  check_s "valid engines" "interp|bytecode" Exec.valid_engines;
  check "compiled is gone" true (Exec.engine_of_string "compiled" = None);
  List.iter
    (fun e ->
      check ("round trip " ^ Exec.engine_to_string e) true
        (Exec.engine_of_string (Exec.engine_to_string e) = Some e))
    [ `Interp; `Bytecode ]

(* --- Parallel benchmark grid ----------------------------------------- *)

let grid_entry name seed =
  { Suite.name; group = "engine-test"; binary = false; spmm = false;
    gen =
      (fun () ->
        Generate.power_law ~seed ~rows:400 ~cols:400 ~avg_deg:6 ~alpha:2.0
          ()) }

let test_grid_parallel_matches_sequential () =
  (* The domain-parallel prewarm must leave the run cache in exactly the
     state a sequential sweep produces: same keys, same measurements. *)
  let e1 = grid_entry "engine-diff-m1" 41
  and e2 = grid_entry "engine-diff-m2" 42 in
  let cells =
    List.concat_map
      (fun e ->
        [ Harness.cell `Spmv e Harness.Base Harness.Optimized;
          Harness.cell `Spmv e Harness.A Harness.Optimized;
          Harness.cell `Spmm e Harness.Jones Harness.Optimized ])
      [ e1; e2 ]
  in
  let was_verbose = !Harness.verbose in
  Harness.verbose := false;
  let run_one (c : Harness.cell) =
    Harness.measure ~threads:c.Harness.c_threads c.Harness.c_kernel
      c.Harness.c_entry c.Harness.c_vkind c.Harness.c_hw
  in
  let clear () =
    List.iter
      (fun (c : Harness.cell) ->
        Hashtbl.remove Harness.run_cache (Harness.cell_key c);
        Harness.drop_matrix c.Harness.c_entry.Suite.name)
      cells
  in
  (* [f ()] and the run records it wrote, which must come out in cell
     order whichever domain measured them. *)
  let recorded f =
    let path = Filename.temp_file "grid" ".jsonl" in
    let rr = Asap_obs.Run_record.open_path path in
    Harness.records := Some rr;
    let x = f () in
    Harness.records := None;
    Asap_obs.Run_record.close rr;
    let text = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    (x, text)
  in
  clear ();
  let seq, seq_records = recorded (fun () -> List.map run_one cells) in
  clear ();
  let par, par_records =
    recorded (fun () ->
        Harness.jobs := 4;
        Harness.prewarm cells;
        Harness.jobs := 1;
        List.iter
          (fun (c : Harness.cell) ->
            check ("prewarmed " ^ Harness.cell_key c) true
              (Hashtbl.mem Harness.run_cache (Harness.cell_key c)))
          cells;
        List.map run_one cells)
  in
  clear ();
  Harness.verbose := was_verbose;
  List.iter2
    (fun (a : Harness.measurement) (b : Harness.measurement) ->
      check ("grid " ^ a.Harness.m_name) true (a = b))
    seq par;
  check "records in cell order at any --jobs" true
    (seq_records <> "" && seq_records = par_records)

let suite =
  [ Alcotest.test_case "spmv differential" `Quick test_differential_spmv;
    Alcotest.test_case "spmm differential" `Quick test_differential_spmm;
    Alcotest.test_case "binary spmv differential" `Quick
      test_differential_binary;
    Alcotest.test_case "ttv differential" `Quick test_differential_ttv;
    Alcotest.test_case "multicore differential" `Quick
      test_differential_multicore;
    Alcotest.test_case "multicore deterministic" `Quick
      test_multicore_deterministic;
    Alcotest.test_case "trap and fault parity" `Quick test_trap_fault_parity;
    Alcotest.test_case "carried values" `Quick test_carried_values;
    Alcotest.test_case "variable-latency differential" `Quick
      test_variable_latency;
    Alcotest.test_case "pipeline pass differential" `Quick
      test_differential_pipeline;
    Alcotest.test_case "pipeline matches variant" `Quick
      test_pipeline_matches_variant;
    Alcotest.test_case "engine names" `Quick test_engine_names;
    Alcotest.test_case "parallel grid = sequential" `Quick
      test_grid_parallel_matches_sequential ]
