(* Property tests for the interpreter's functional semantics: random
   arithmetic expression trees are built as IR, interpreted, and compared
   against direct evaluation; control-flow constructs are checked against
   hand computations. *)

module Runtime = Asap_sim.Runtime
module Interp = Asap_sim.Interp
open Asap_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let free_port = Asap_sim.Stream.free_port Asap_obs.Sink.null

(* Random integer expression trees over a small positive domain (keeps
   division and shift well-defined). *)
type iexpr =
  | Lit of int
  | Bin of Ir.ibinop * iexpr * iexpr

let rec eval_iexpr = function
  | Lit i -> i
  | Bin (op, a, b) ->
    let x = eval_iexpr a and y = eval_iexpr b in
    (match op with
     | Ir.Iadd -> x + y
     | Ir.Isub -> x - y
     | Ir.Imul -> x * y
     | Ir.Idiv -> x / y
     | Ir.Irem -> x mod y
     | Ir.Imin -> min x y
     | Ir.Imax -> max x y
     | Ir.Iand -> x land y
     | Ir.Ior -> x lor y
     | Ir.Ixor -> x lxor y
     | Ir.Ishl -> x lsl min y 8)

let rec build_iexpr b = function
  | Lit i -> Builder.index b i
  | Bin (op, x, y) ->
    let vx = build_iexpr b x and vy = build_iexpr b y in
    (match op with
     | Ir.Ishl ->
       (* Clamp the shift as the evaluator does. *)
       let c8 = Builder.index b 8 in
       Builder.ibin b Ir.Ishl vx (Builder.imin b vy c8)
     | op -> Builder.ibin b op vx vy)

let gen_iexpr =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           if n = 0 then map (fun i -> Lit i) (int_range 1 64)
           else
             frequency
               [ (1, map (fun i -> Lit i) (int_range 1 64));
                 ( 3,
                   let* op =
                     oneofl
                       [ Ir.Iadd; Ir.Isub; Ir.Imul; Ir.Idiv; Ir.Irem;
                         Ir.Imin; Ir.Imax; Ir.Iand; Ir.Ior; Ir.Ixor;
                         Ir.Ishl ]
                   in
                   let* a = self (n / 2) in
                   let* b = self (n / 2) in
                   pure (Bin (op, a, b)) ) ]))

let qcheck_int_expr =
  QCheck2.Test.make ~count:300 ~name:"interp evaluates integer expressions"
    gen_iexpr (fun e ->
      QCheck2.assume
        (match eval_iexpr e with
         | (_ : int) -> true
         | exception Division_by_zero -> false);
      let b = Builder.create () in
      let dst = Builder.buf b "dst" Ir.EIdx64 in
      let v = build_iexpr b e in
      Builder.store b dst (Builder.index b 0) v;
      let fn = Builder.finish b "expr" in
      let out = Array.make 1 0 in
      let bufs = Runtime.layout fn [ (dst, Runtime.RI out) ] in
      let (_ : Interp.result) =
        Interp.run fn ~bufs ~scalars:[] ~mem:free_port
      in
      out.(0) = eval_iexpr e)

(* Also run the folding pass over the same trees: results must agree. *)
let qcheck_fold_preserves =
  QCheck2.Test.make ~count:300 ~name:"fold preserves expression values"
    gen_iexpr (fun e ->
      QCheck2.assume
        (match eval_iexpr e with
         | (_ : int) -> true
         | exception Division_by_zero -> false);
      let b = Builder.create () in
      let dst = Builder.buf b "dst" Ir.EIdx64 in
      let v = build_iexpr b e in
      Builder.store b dst (Builder.index b 0) v;
      let fn = Builder.finish b "expr" in
      let fn', _ = Fold.run fn in
      let out = Array.make 1 0 in
      let bufs = Runtime.layout fn' [ (dst, Runtime.RI out) ] in
      let (_ : Interp.result) =
        Interp.run fn' ~bufs ~scalars:[] ~mem:free_port
      in
      out.(0) = eval_iexpr e)

let test_while_gauss () =
  (* sum 0..n-1 via a while loop with two carried values. *)
  let b = Builder.create () in
  let dst = Builder.buf b "dst" Ir.EIdx64 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  let c1 = Builder.index b 1 in
  let results =
    Builder.while_ b
      [ ("i", Ir.Index, c0); ("sum", Ir.Index, c0) ]
      (fun args -> Builder.icmp b Ir.Ult (List.nth args 0) n)
      (fun args ->
        let i = List.nth args 0 and sum = List.nth args 1 in
        [ Builder.iadd b i c1; Builder.iadd b sum i ])
  in
  Builder.store b dst c0 (List.nth results 1);
  let fn = Builder.finish b "gauss" in
  let out = Array.make 1 0 in
  let bufs = Runtime.layout fn [ (dst, Runtime.RI out) ] in
  let (_ : Interp.result) =
    Interp.run fn ~bufs ~scalars:[ 10 ] ~mem:free_port
  in
  check_int "gauss" 45 out.(0)

let test_if_branches () =
  let b = Builder.create () in
  let dst = Builder.buf b "dst" Ir.EIdx32 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  let c5 = Builder.index b 5 in
  let cond = Builder.icmp b Ir.Ult n c5 in
  Builder.if_ b cond
    (fun () -> Builder.store b dst c0 (Builder.index b 111))
    (fun () -> Builder.store b dst c0 (Builder.index b 222));
  let fn = Builder.finish b "branch" in
  let run n =
    let out = Array.make 1 0 in
    let bufs = Runtime.layout fn [ (dst, Runtime.RI out) ] in
    let (_ : Interp.result) =
      Interp.run fn ~bufs ~scalars:[ n ] ~mem:free_port
    in
    out.(0)
  in
  check_int "then branch" 111 (run 3);
  check_int "else branch" 222 (run 9)

let test_nested_carried_loops () =
  (* sum of i*j over a 2-D space using nested iter_args. *)
  let b = Builder.create () in
  let dst = Builder.buf b "dst" Ir.EIdx64 in
  let n = Builder.scalar_param b "n" Ir.Index in
  let c0 = Builder.index b 0 in
  let outer =
    Builder.for_ b ~carried:[ ("acc", Ir.Index, c0) ] "i" c0 n
      (fun i args ->
        let inner =
          Builder.for_ b
            ~carried:[ ("acc2", Ir.Index, List.hd args) ]
            "j" c0 n
            (fun j args' ->
              [ Builder.iadd b (List.hd args') (Builder.imul b i j) ])
        in
        inner)
  in
  Builder.store b dst c0 (List.hd outer);
  let fn = Builder.finish b "nest" in
  let out = Array.make 1 0 in
  let bufs = Runtime.layout fn [ (dst, Runtime.RI out) ] in
  let (_ : Interp.result) = Interp.run fn ~bufs ~scalars:[ 4 ] ~mem:free_port in
  (* sum_{i<4} sum_{j<4} i*j = (0+1+2+3)^2 = 36 *)
  check_int "nested sum" 36 out.(0)

let test_dim_and_cast () =
  let b = Builder.create () in
  let src = Builder.buf b "src" Ir.EF64 in
  let dst = Builder.buf b "dst" Ir.EF64 in
  let c0 = Builder.index b 0 in
  let d = Builder.dim b src in
  let f = Builder.cast b Ir.F64 d in
  Builder.store b dst c0 f;
  let fn = Builder.finish b "dim" in
  let out = Array.make 1 0. in
  let bufs =
    Runtime.layout fn
      [ (src, Runtime.RF (Array.make 17 0.)); (dst, Runtime.RF out) ]
  in
  let (_ : Interp.result) = Interp.run fn ~bufs ~scalars:[] ~mem:free_port in
  check "dim->cast" true (out.(0) = 17.)

let test_byte_buffer_ops () =
  (* i8 loads/stores wrap at 8 bits, as bytes do. *)
  let b = Builder.create () in
  let buf = Builder.buf b "buf" Ir.EI8 in
  let c0 = Builder.index b 0 in
  let x = Builder.load b buf c0 in
  let big = Builder.let_ b "big" Ir.I64 (Ir.Const (Ir.Ci64 300)) in
  let y = Builder.ibin b Ir.Ior x big in
  Builder.store b buf c0 y;
  let fn = Builder.finish b "bytes" in
  let data = Bytes.make 1 '\001' in
  let bufs = Runtime.layout fn [ (buf, Runtime.RB data) ] in
  let (_ : Interp.result) = Interp.run fn ~bufs ~scalars:[] ~mem:free_port in
  check_int "masked to 8 bits" ((300 lor 1) land 0xff)
    (Bytes.get_uint8 data 0)

(* --- Randomized two-engine differential harness -----------------------

   Random sparse matrices — varying density, bandedness, empty rows and
   columns, degenerate 1xN / Nx1 and nnz = 0 shapes — are driven through
   every (kernel x format x variant) triple under both execution
   engines.  Structural equality of reports and outputs is the whole
   cycle- and value-exactness contract at once (cycles, instruction mix,
   every cache counter, float summation order — see test_engine.ml); the
   interpreter result is additionally checked against the dense
   reference.  Tier-1 runs a pinned kernel x format cover plus a seeded
   sample of the grid (~40 cells); set ASAP_DIFF_FULL=1 to sweep every
   cell. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Rng = Asap_workloads.Rng

(* One random matrix per seed: a shape class (square, wide, tall, 1xN,
   Nx1, tiny) crossed with a fill style (empty, sparse, dense-ish,
   banded, clustered — the last leaving rows and columns empty between
   populated ones). Coordinates are deduped, values in [-1, 1). *)
let gen_coo rng =
  let rows, cols =
    match Rng.int rng 6 with
    | 0 -> (1, 1 + Rng.int rng 60)                   (* 1xN *)
    | 1 -> (1 + Rng.int rng 60, 1)                   (* Nx1 *)
    | 2 -> (2 + Rng.int rng 7, 30 + Rng.int rng 30)  (* wide *)
    | 3 -> (30 + Rng.int rng 30, 2 + Rng.int rng 7)  (* tall *)
    | 4 -> (1 + Rng.int rng 6, 1 + Rng.int rng 6)    (* tiny *)
    | _ -> (8 + Rng.int rng 40, 8 + Rng.int rng 40)  (* general *)
  in
  let style = Rng.int rng 5 in
  let target =
    match style with
    | 0 -> 0                                             (* empty *)
    | 1 -> 1 + Rng.int rng (max 1 (rows * cols / 8))     (* sparse *)
    | 2 -> max 1 (rows * cols / 2)                       (* dense-ish *)
    | _ -> 1 + Rng.int rng (max 1 (2 * (rows + cols)))   (* banded/clustered *)
  in
  let band = 1 + Rng.int rng 4 in
  let seen = Hashtbl.create 64 in
  let triples = ref [] in
  for _ = 1 to target do
    let i0 = Rng.int rng rows and j0 = Rng.int rng cols in
    (* Clustered fill snaps coordinates down, leaving every row not
       divisible by 3 and every odd column empty. *)
    let i = if style = 4 then i0 - (i0 mod 3) else i0 in
    let j =
      if style = 3 then begin
        let centre =
          if rows = 1 then j0 else i * (cols - 1) / max 1 (rows - 1)
        in
        let lo = max 0 (centre - band) and hi = min (cols - 1) (centre + band) in
        lo + Rng.int rng (hi - lo + 1)
      end
      else if style = 4 then j0 - (j0 mod 2)
      else j0
    in
    if not (Hashtbl.mem seen (i, j)) then begin
      Hashtbl.add seen (i, j) ();
      triples := (i, j, (2. *. Rng.float rng) -. 1.) :: !triples
    end
  done;
  Coo.of_triples ~rows ~cols (List.rev !triples)

let diff_machine = Machine.gracemont_scaled ()
let diff_kernels = [ ("spmv", `Spmv); ("spmm", `Spmm); ("sddmm", `Sddmm) ]

let diff_encodings () =
  [ Encoding.coo (); Encoding.csr (); Encoding.csc (); Encoding.dcsr ();
    Encoding.bsr ~bh:2 ~bw:2 (); Encoding.bsr ~bh:2 ~bw:3 () ]

let diff_variants =
  [ ("baseline", Pipeline.Baseline);
    ("asap", Pipeline.Asap { Asap.default with Asap.distance = 4 });
    ("aj", Pipeline.Ainsworth_jones { Aj.default with Aj.distance = 4 }) ]

let n_matrix_seeds = 8
let matrix_cache : (int, Coo.t) Hashtbl.t = Hashtbl.create 8

let matrix_for seed =
  match Hashtbl.find_opt matrix_cache seed with
  | Some coo -> coo
  | None ->
    let coo = gen_coo (Rng.create (0xd1ff + seed)) in
    Hashtbl.add matrix_cache seed coo;
    coo

let same_result name (a : Driver.result) (b : Driver.result) =
  check (name ^ ": report") true (a.Driver.report = b.Driver.report);
  check (name ^ ": nnz") true (a.Driver.nnz = b.Driver.nnz);
  check (name ^ ": out_f") true (a.Driver.out_f = b.Driver.out_f);
  check (name ^ ": out_b") true (a.Driver.out_b = b.Driver.out_b)

let run_cell (mseed, (kname, kernel), enc, (vname, v)) =
  let coo = matrix_for mseed in
  let name =
    Printf.sprintf "%s/%s/%s m%d [%dx%d nnz=%d]" kname enc.Encoding.name
      vname mseed coo.Coo.dims.(0) coo.Coo.dims.(1) (Coo.nnz coo)
  in
  let f engine =
    let cfg = Driver.Cfg.make ~engine ~machine:diff_machine ~variant:v in
    match kernel with
    | `Spmv -> Driver.run (cfg ()) (Driver.Spmv enc) coo
    | `Spmm -> Driver.run (cfg ~n:3 ()) (Driver.Spmm enc) coo
    | `Sddmm -> Driver.run (cfg ~n:5 ()) (Driver.Sddmm enc) coo
  in
  let r_i = f `Interp in
  same_result (name ^ " bytecode") r_i (f `Bytecode);
  let err =
    match kernel with
    | `Spmv -> Driver.check_spmv coo r_i
    | `Spmm -> Driver.check_spmm coo ~n:3 r_i
    | `Sddmm -> Driver.check_sddmm coo ~kk:5 r_i
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
   rotating with the cell position — 18 cells. *)
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

(* 22 more cells drawn without replacement from the full grid by a fixed
   seed — or, under ASAP_DIFF_FULL=1, every cell. *)
let test_differential_random () =
  let grid = Array.of_list (diff_grid ()) in
  if Sys.getenv_opt "ASAP_DIFF_FULL" <> None then Array.iter run_cell grid
  else begin
    let rng = Rng.create 0xd1ff in
    let picked = Hashtbl.create 64 in
    let drawn = ref 0 in
    while !drawn < 22 do
      let i = Rng.int rng (Array.length grid) in
      if not (Hashtbl.mem picked i) then begin
        Hashtbl.add picked i ();
        incr drawn;
        run_cell grid.(i)
      end
    done
  end

(* The matrix pool itself must keep exercising the edge shapes the
   harness is about — a generator drift that stopped producing them
   would silently weaken every cell above. *)
let test_generator_shape_coverage () =
  let pool = List.init n_matrix_seeds (fun i -> matrix_for (i + 1)) in
  let has p = List.exists p pool in
  check "pool has a degenerate 1xN or Nx1 shape" true
    (has (fun c -> c.Coo.dims.(0) = 1 || c.Coo.dims.(1) = 1));
  check "pool has an empty row or column" true
    (has (fun c ->
         let rows = c.Coo.dims.(0) and cols = c.Coo.dims.(1) in
         let rseen = Array.make rows false and cseen = Array.make cols false in
         Array.iter (fun i -> rseen.(i) <- true) c.Coo.crd.(0);
         Array.iter (fun j -> cseen.(j) <- true) c.Coo.crd.(1);
         Array.exists not rseen || Array.exists not cseen));
  check "pool nnz spread spans sparse to dense-ish" true
    (let densities =
       List.map
         (fun c ->
           float_of_int (Coo.nnz c)
           /. float_of_int (max 1 (c.Coo.dims.(0) * c.Coo.dims.(1))))
         pool
     in
     List.exists (fun d -> d < 0.15) densities
     && List.exists (fun d -> d > 0.3) densities)

let suite =
  [ QCheck_alcotest.to_alcotest qcheck_int_expr;
    QCheck_alcotest.to_alcotest qcheck_fold_preserves;
    Alcotest.test_case "while gauss" `Quick test_while_gauss;
    Alcotest.test_case "if branches" `Quick test_if_branches;
    Alcotest.test_case "nested carried loops" `Quick
      test_nested_carried_loops;
    Alcotest.test_case "dim and cast" `Quick test_dim_and_cast;
    Alcotest.test_case "byte buffers" `Quick test_byte_buffer_ops;
    Alcotest.test_case "differential: kernel x format cover"
      `Quick test_differential_pinned;
    Alcotest.test_case "differential: seeded random sample" `Quick
      test_differential_random;
    Alcotest.test_case "differential: generator shape coverage" `Quick
      test_generator_shape_coverage ]
