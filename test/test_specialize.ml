(* Ahead-of-time specialization tests: the rewrite itself (clamp
   elimination and constant-trip unrolling on a hand-built function),
   the specialization fingerprint (distinct shapes, formats and tuned
   configs never collide), a randomized specialized-vs-generic
   differential over the kernel x format x variant grid on both
   engines, and the serving integration (streaming updates evict
   specialized entries; replay records stay byte-identical at any
   --jobs with specialization on). *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Interp = Asap_sim.Interp
module Runtime = Asap_sim.Runtime
module Specialize = Asap_sim.Specialize
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Rng = Asap_workloads.Rng
module Mix = Asap_serve.Mix
module Scheduler = Asap_serve.Scheduler
module Config = Asap_serve.Config
module Slo = Asap_serve.Slo
module Registry = Asap_obs.Registry
open Asap_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let free_port = Asap_sim.Stream.free_port Asap_obs.Sink.null

(* --- The rewrite on a hand-built function ----------------------------
   The shape the BSR emitter produces: an outer loop over nb blocks
   whose micro extent is clamped as min(s, n - ib*s), with an inner
   loop over that extent. With n divisible by s the clamp is provably
   the constant s, which in turn makes the inner loop constant-trip. *)

let clamped_fn () =
  let b = Builder.create () in
  let dst = Builder.buf b "dst" Ir.EIdx64 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let nb = Builder.scalar_param b "nb" Ir.Index in
  let c0 = Builder.index b 0 in
  let c2 = Builder.index b 2 in
  let (_ : Ir.value list) =
    Builder.for_ b "ib" c0 nb (fun ib _ ->
        let base = Builder.imul b ib c2 in
        let rext = Builder.imin b c2 (Builder.isub b n base) in
        let acc =
          Builder.for_ b
            ~carried:[ ("acc", Ir.Index, c0) ]
            "c" c0 rext
            (fun c args ->
              [ Builder.iadd b (List.hd args) (Builder.iadd b base c) ])
        in
        Builder.store b dst ib (List.hd acc);
        [])
  in
  Builder.finish b "clamped"

let run_specialized fn scalars rows =
  let facts = Specialize.make ~scalars () in
  let fn', stats = Specialize.apply facts fn in
  let out = Array.make rows 0 in
  let dst = List.hd fn'.Ir.fn_params in
  let dst = match dst with Ir.Pbuf buf -> buf | _ -> assert false in
  let bufs = Runtime.layout fn' [ (dst, Runtime.RI out) ] in
  let (_ : Interp.result) =
    Interp.run fn' ~bufs ~scalars ~mem:free_port
  in
  (stats, out)

let test_clamp_elimination () =
  (* n = 8, nb = 4: the clamp folds to 2, the inner loop unrolls. *)
  let stats, out = run_specialized (clamped_fn ()) [ 8; 4 ] 4 in
  check_int "clamp proven away" 1 stats.Specialize.sp_clamps;
  check_int "inner loop unrolled" 1 stats.Specialize.sp_unrolled;
  check_int "two iterations expanded" 2 stats.Specialize.sp_iterations;
  check "values preserved" true (out = [| 1; 5; 9; 13 |]);
  (* n = 7 is not divisible by the block side: the edge clamp is live
     (the last block is short) and must survive, so nothing unrolls. *)
  let stats7, out7 = run_specialized (clamped_fn ()) [ 7; 4 ] 4 in
  check_int "live clamp survives" 0 stats7.Specialize.sp_clamps;
  check_int "nothing unrolled" 0 stats7.Specialize.sp_unrolled;
  check "short last block computed" true (out7 = [| 1; 5; 9; 6 |])

(* --- Fingerprints ----------------------------------------------------- *)

let test_fingerprint () =
  let fp ?(kernel = "spmv") ?(format = "csr") ?(pipeline = "sparsify,asap")
      ?(tuned = "d=8") ?(shape = [| 100; 100 |]) () =
    Specialize.fingerprint ~kernel ~format ~pipeline ~tuned ~shape
  in
  let base = fp () in
  check "fingerprint is deterministic" true (base = fp ());
  List.iter
    (fun (what, other) ->
      check (what ^ " changes the fingerprint") true (other <> base))
    [ ("kernel", fp ~kernel:"spmm" ());
      ("format", fp ~format:"bsr2x2" ());
      ("pipeline", fp ~pipeline:"sparsify" ());
      ("tuned config", fp ~tuned:"d=16" ());
      ("shape", fp ~shape:[| 100; 200 |] ());
      ("rank", fp ~shape:[| 100; 100; 100 |] ()) ];
  (* Concatenation must not alias across the shape boundary. *)
  check "shape digits do not alias" true
    (fp ~shape:[| 10; 0 |] () <> fp ~shape:[| 1; 00 |] ())

(* --- Randomized specialized-vs-generic differential -------------------
   Random matrices (including shapes not divisible by the BSR block
   sides, where edge clamps must survive) through kernel x format x
   variant cells: the specialized run must be value-exact against the
   generic bytecode run and report-identical across both engines.
   Tier-1 samples the grid; ASAP_DIFF_FULL=1 sweeps every cell. *)

let diff_machine = Machine.gracemont_scaled ()

let gen_coo rng =
  let rows, cols =
    match Rng.int rng 4 with
    | 0 -> (1, 1 + Rng.int rng 40)                   (* 1xN *)
    | 1 -> (2 + Rng.int rng 7, 24 + Rng.int rng 24)  (* wide *)
    | 2 -> (1 + Rng.int rng 6, 1 + Rng.int rng 6)    (* tiny *)
    | _ -> (8 + Rng.int rng 32, 8 + Rng.int rng 32)  (* general *)
  in
  let target = Rng.int rng (max 2 (rows * cols / 4)) in
  let seen = Hashtbl.create 64 in
  let triples = ref [] in
  for _ = 1 to target do
    let i = Rng.int rng rows and j = Rng.int rng cols in
    if not (Hashtbl.mem seen (i, j)) then begin
      Hashtbl.add seen (i, j) ();
      triples := (i, j, (2. *. Rng.float rng) -. 1.) :: !triples
    end
  done;
  Coo.of_triples ~rows ~cols (List.rev !triples)

let n_matrix_seeds = 6
let matrix_cache : (int, Coo.t) Hashtbl.t = Hashtbl.create 8

let matrix_for seed =
  match Hashtbl.find_opt matrix_cache seed with
  | Some coo -> coo
  | None ->
    let coo = gen_coo (Rng.create (0x5bec + seed)) in
    Hashtbl.add matrix_cache seed coo;
    coo

let diff_kernels = [ ("spmv", `Spmv); ("spmm", `Spmm); ("sddmm", `Sddmm) ]

let diff_encodings () =
  [ Encoding.csr (); Encoding.csc (); Encoding.bsr ~bh:2 ~bw:2 ();
    Encoding.bsr ~bh:2 ~bw:3 () ]

let diff_variants =
  [ ("baseline", Pipeline.Baseline);
    ("asap", Pipeline.Asap { Asap.default with Asap.distance = 4 });
    ("aj", Pipeline.Ainsworth_jones { Aj.default with Aj.distance = 4 }) ]

let run_cell (mseed, (kname, kernel), enc, (vname, variant)) =
  let coo = matrix_for mseed in
  let name =
    Printf.sprintf "%s/%s/%s m%d [%dx%d nnz=%d]" kname enc.Encoding.name
      vname mseed coo.Coo.dims.(0) coo.Coo.dims.(1) (Coo.nnz coo)
  in
  let inner = match kernel with `Spmv -> None | `Spmm | `Sddmm -> Some 3 in
  let cfg ~specialize engine =
    Driver.Cfg.make ~engine ~specialize ?n:inner ~machine:diff_machine
      ~variant ()
  in
  let kspec =
    match kernel with
    | `Spmv -> Driver.Spmv enc
    | `Spmm -> Driver.Spmm enc
    | `Sddmm -> Driver.Sddmm enc
  in
  let generic = Driver.run (cfg ~specialize:false `Bytecode) kspec coo in
  let spec = Driver.run (cfg ~specialize:true `Bytecode) kspec coo in
  check (name ^ ": value-exact vs generic") true
    (generic.Driver.out_f = spec.Driver.out_f
     && generic.Driver.out_b = spec.Driver.out_b);
  (* No cycle assertion here: fewer instructions shift load issue times,
     which can move cache-miss timing either way on tiny inputs. The
     speedup claims live in bench/specialize.ml where they are gated on
     the suite they are made about. *)
  let spec_on e = Driver.run (cfg ~specialize:true e) kspec coo in
  check (name ^ ": interp report identical") true
    ((spec_on `Interp).Driver.report = spec.Driver.report);
  let err =
    match kernel with
    | `Spmv -> Driver.check_spmv coo spec
    | `Spmm -> Driver.check_spmm coo ~n:3 spec
    | `Sddmm -> Driver.check_sddmm coo ~kk:3 spec
  in
  check (name ^ ": against dense reference") true (err <= 1e-9)

let diff_grid () =
  List.concat_map
    (fun mseed ->
      List.concat_map
        (fun k ->
          List.concat_map
            (fun enc -> List.map (fun v -> (mseed, k, enc, v)) diff_variants)
            (diff_encodings ()))
        diff_kernels)
    (List.init n_matrix_seeds (fun i -> i + 1))

(* Every (kernel, format) pair at least once, variants and matrices
   rotating with the cell position. *)
let test_differential_pinned () =
  let encs = Array.of_list (diff_encodings ()) in
  let vars = Array.of_list diff_variants in
  List.iteri
    (fun ki (kname, k) ->
      Array.iteri
        (fun ei enc ->
          let v = vars.((ki + ei) mod Array.length vars) in
          let mseed = 1 + ((ki + ei) mod n_matrix_seeds) in
          run_cell (mseed, (kname, k), enc, v))
        encs)
    diff_kernels

(* 16 more cells drawn without replacement by a fixed seed — or, under
   ASAP_DIFF_FULL=1, every cell. *)
let test_differential_random () =
  let grid = Array.of_list (diff_grid ()) in
  if Sys.getenv_opt "ASAP_DIFF_FULL" <> None then Array.iter run_cell grid
  else begin
    let rng = Rng.create 0x5bec in
    let picked = Hashtbl.create 64 in
    let drawn = ref 0 in
    while !drawn < 16 do
      let i = Rng.int rng (Array.length grid) in
      if not (Hashtbl.mem picked i) then begin
        Hashtbl.add picked i ();
        incr drawn;
        run_cell grid.(i)
      end
    done
  end

(* --- Serving integration ---------------------------------------------- *)

let spec_profiles () =
  [ Mix.profile ~specialize:true "powerlaw:400,5";
    Mix.profile ~specialize:true ~format:"bsr" "banded:300,4";
    Mix.profile ~specialize:true ~kernel:`Spmm "uniform:300,1200" ]

let counter rp name =
  Option.value ~default:0 (Registry.get rp.Scheduler.rp_registry name)

let lines rp =
  Array.to_list (Array.map Scheduler.record_to_line rp.Scheduler.rp_records)

let test_serve_specialized_replay () =
  let reqs = Mix.hot_cold ~seed:31 ~n:40 (spec_profiles ()) in
  let run jobs = Scheduler.run Config.(with_jobs jobs default) reqs in
  let a = run 1 and b = run 4 in
  check "specialized replay byte-identical across jobs" true
    (lines a = lines b);
  check "specialized artefacts built" true (counter a "serve.spec.miss" > 0);
  check "specialized artefacts served from cache" true
    (counter a "serve.spec.hit" > 0);
  check "pack memoisation engaged" true (counter a "serve.pack.miss" > 0);
  check "pack hits never negative" true (counter a "serve.pack.hit" >= 0);
  (* Uncached replay performs no memoised packs (the honest baseline
     repacks per build) and serves no specialized cache hits. *)
  let un = Scheduler.run Config.(with_cache_capacity 0 default) reqs in
  check_int "no memoised packs uncached" 0 (counter un "serve.pack.miss");
  check_int "no cache hits uncached" 0 (counter un "serve.spec.hit")

let test_update_evicts_specialized () =
  let profiles = spec_profiles () in
  let reqs = Mix.hot_cold ~seed:31 ~n:40 profiles in
  let updates = Mix.update_stream ~seed:31 ~n:6 ~mean_gap_ms:0.3 profiles in
  let plain = Scheduler.run Config.default reqs in
  let upd = Scheduler.run ~updates Config.default reqs in
  let upd4 = Scheduler.run ~updates Config.(with_jobs 4 default) reqs in
  check "updated replay byte-identical across jobs" true
    (lines upd = lines upd4);
  check "updates invalidated cached entries" true
    (upd.Scheduler.rp_summary.Slo.s_invalidated > 0);
  check_int "no stale hits" 0 upd.Scheduler.rp_summary.Slo.s_stale_hits;
  (* The version bump misses the specialized cache and rebuilds: more
     specialized builds than the update-free replay of the same mix. *)
  check "version bump rebuilt specialized entries" true
    (counter upd "serve.spec.miss" > counter plain "serve.spec.miss")

let suite =
  [ Alcotest.test_case "clamp elimination + unroll" `Quick
      test_clamp_elimination;
    Alcotest.test_case "fingerprints never collide" `Quick test_fingerprint;
    Alcotest.test_case "differential: kernel x format cover" `Quick
      test_differential_pinned;
    Alcotest.test_case "differential: seeded random sample" `Quick
      test_differential_random;
    Alcotest.test_case "serve: specialized replay + pack memo" `Quick
      test_serve_specialized_replay;
    Alcotest.test_case "serve: updates evict specialized entries" `Quick
      test_update_evicts_specialized ]
