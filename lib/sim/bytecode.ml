(* Flat-bytecode execution engine.

   The tree-walking interpreter ({!Interp}) pays a pattern match and
   environment lookups per simulated statement. This engine flattens an
   [Ir.func] into a single [int array] instruction stream — int-coded
   opcodes followed by their operands (register indices into the unboxed
   [ienv]/[fenv]/[ready] files, plus immediates such as buffer bases and
   bounds resolved at compile time) — executed by one tail-recursive
   dispatch loop whose [match] compiles to a jump table. Structured
   control flow becomes explicit jump targets; carried-value lists
   become preallocated vid arrays; loop state lives in per-static-loop
   slots (no recursion in the IR, so one slot per loop suffices).

   Every IR operation is one opcode, performing the same sequence of
   issue/retire timing events, memory-port calls (same pcs, so
   {!Exec.load_sites} attribution is unchanged), bounds checks and
   register writes as {!Interp.run}, in the same order. Cycle-exactness
   and value-exactness against {!Interp.run} therefore hold by
   construction, and are enforced by the differential tests in
   [test/test_engine.ml]. *)

open Asap_ir

let int_lat = 1
let fp_lat = 3
let st_lat = 1

(* --- Opcode table ----------------------------------------------------

   Operands follow the opcode inline; sizes include the opcode slot.
   Register operands (d, a, b, c, ix, v, cv, ivd) index ienv/fenv/ready
   by Ir vid; base/eb/n are immediates resolved from the buffer binding;
   l/w index the static loop/while tables; jump operands are absolute
   code positions.

    0 HALT                               1
    1 CONST_I  d imm                     3
    2 CONST_F  d fidx                    3
    3 IADD     d a b                     4    (4 ISUB, 5 IMUL, 6 IDIV,
                                              7 IREM, 8 IMIN, 9 IMAX,
                                              10 IAND, 11 IOR, 12 IXOR,
                                              13 ISHL)
   14 FADD     d a b                     4    (15 FSUB, 16 FMUL, 17 FDIV,
                                              18 FMIN, 19 FMAX)
   20 CEQ      d a b                     4    (21 CNE, 22 CLT, 23 CLE,
                                              24 CGT, 25 CGE)
   26 SELI     d c a b                   5
   27 SELF     d c a b                   5
   28 LOADI    d ix bid base eb n        7
   29 LOADF    d ix bid base eb n        7
   30 LOADB    d ix bid base eb n        7
   31 DIM      d n                       3
   32 I2F      d x                       3
   33 F2I      d x                       3
   34 MOVF     d x                       3
   35 MOVI     d x                       3
   36 STOREF   bid ix v base eb n        7
   37 STOREI   bid ix v base eb n        7
   38 STOREB   bid ix v base eb n        7
   39 STOREG   bid ix v base eb isf      7
   40 PREFETCH ix base eb loc            5
   41 FOR_INIT l                         2    (falls through to FOR_TEST)
   42 FOR_TEST l ivd exit                4
   43 FOR_NEXT l head                    3
   44 FOR_EXIT l                         2
   45 WHILE_INIT w                       2
   46 WHILE_TEST cv exit                 3
   47 WHILE_NEXT w cond                  3
   48 WHILE_EXIT w                       2
   49 IF       cv else                   3
   50 JUMP     t                         2
   51 LOADP    d ix bid base eb n        7
   52 STOREP   bid ix v base eb n        7 *)

let op_halt = 0
let op_const_i = 1
let op_const_f = 2
let op_iadd = 3 (* .. op_iadd + 10 = ISHL, order of Ir.ibin_op *)
let op_fadd = 14 (* .. op_fadd + 5 = FMAX, order of Ir.fbin_op *)
let op_ceq = 20 (* CEQ CNE CLT CLE CGT CGE *)
let op_seli = 26
let op_self = 27
let op_loadi = 28
let op_loadf = 29
let op_loadb = 30
let op_dim = 31
let op_i2f = 32
let op_f2i = 33
let op_movf = 34
let op_movi = 35
let op_storef = 36
let op_storei = 37
let op_storeb = 38
let op_storeg = 39
let op_prefetch = 40
let op_for_init = 41
let op_for_test = 42
let op_for_next = 43
let op_for_exit = 44
let op_while_init = 45
let op_while_test = 46
let op_while_next = 47
let op_while_exit = 48
let op_if = 49
let op_jump = 50
let op_loadp = 51
let op_storep = 52

(* Carried-value plumbing, staged exactly as in Compile: vids of
   destinations and sources plus per-slot float-ness. *)
type carry = {
  car_dst : int array;
  car_src : int array;
  car_isf : bool array;
}

let carry_of (pairs : (Ir.value * Ir.value) list) : carry =
  let a = Array.of_list pairs in
  { car_dst = Array.map (fun ((d : Ir.value), _) -> d.Ir.vid) a;
    car_src = Array.map (fun (_, (s : Ir.value)) -> s.Ir.vid) a;
    car_isf = Array.map (fun ((d : Ir.value), _) -> d.Ir.vty = Ir.F64) a }

(* Static per-loop data: bound/step vids, slice eligibility and the three
   carry tables. The dynamic loop state (iv, hi, step, riv) lives in
   per-run slot arrays indexed by the same loop id. *)
type loop_info = {
  l_lo : int;
  l_hi : int;
  l_step : int;
  l_top : bool;
  l_const : (int * int * int) option;
      (* (lo, hi, step) immediates when all three bounds are literal
         constants in the stream — the loop entry then skips the
         bound reload and the step trap (timing-neutral: the same ready
         times and events are produced) *)
  l_init : carry;
  l_yield : carry;
  l_res : carry;
}

type while_info = {
  w_init : carry;
  w_yield : carry;
  w_res : carry;
}

type prog = {
  p_fn : Ir.func;
  p_code : int array;
  p_fpool : float array;          (* Cf64 constants *)
  p_loops : loop_info array;
  p_whiles : while_info array;
  p_bi : int array array;         (* bid -> RI backing array, or [||] *)
  p_bf : float array array;       (* bid -> RF backing array, or [||] *)
  p_bb : Bytes.t array;           (* bid -> RB backing bytes, or empty *)
  p_bp : Runtime.pattern array;   (* bid -> RP pattern, or an empty one *)
  p_bname : string array;         (* bid -> buffer name (fault messages) *)
  p_bounds : Runtime.bound array; (* kind-mismatch store fallback *)
}

(* --- Compilation ----------------------------------------------------- *)

type emitter = {
  mutable e_code : int array;
  mutable e_len : int;
  mutable e_fpool : float list;        (* reversed *)
  mutable e_nf : int;
  mutable e_loops : loop_info list;    (* reversed *)
  mutable e_nloops : int;
  mutable e_whiles : while_info list;  (* reversed *)
  mutable e_nwhiles : int;
}

let emit e x =
  let n = Array.length e.e_code in
  if e.e_len = n then begin
    let c = Array.make (2 * n) 0 in
    Array.blit e.e_code 0 c 0 n;
    e.e_code <- c
  end;
  e.e_code.(e.e_len) <- x;
  e.e_len <- e.e_len + 1

let pos e = e.e_len
let patch e at x = e.e_code.(at) <- x

let add_float e x =
  let i = e.e_nf in
  e.e_fpool <- x :: e.e_fpool;
  e.e_nf <- i + 1;
  i

let add_loop e info =
  let i = e.e_nloops in
  e.e_loops <- info :: e.e_loops;
  e.e_nloops <- i + 1;
  i

let add_while e info =
  let i = e.e_nwhiles in
  e.e_whiles <- info :: e.e_whiles;
  e.e_nwhiles <- i + 1;
  i

type buf_kind = KI | KF | KB | KP

let kind_of (b : Runtime.bound) =
  match b.Runtime.data with
  | Runtime.RI _ -> KI
  | Runtime.RF _ -> KF
  | Runtime.RB _ -> KB
  | Runtime.RP _ -> KP

let ibin_code = function
  | Ir.Iadd -> op_iadd
  | Ir.Isub -> op_iadd + 1
  | Ir.Imul -> op_iadd + 2
  | Ir.Idiv -> op_iadd + 3
  | Ir.Irem -> op_iadd + 4
  | Ir.Imin -> op_iadd + 5
  | Ir.Imax -> op_iadd + 6
  | Ir.Iand -> op_iadd + 7
  | Ir.Ior -> op_iadd + 8
  | Ir.Ixor -> op_iadd + 9
  | Ir.Ishl -> op_iadd + 10

let fbin_code = function
  | Ir.Fadd -> op_fadd
  | Ir.Fsub -> op_fadd + 1
  | Ir.Fmul -> op_fadd + 2
  | Ir.Fdiv -> op_fadd + 3
  | Ir.Fmin -> op_fadd + 4
  | Ir.Fmax -> op_fadd + 5

(* Signed and unsigned orders coincide (indices are non-negative), as in
   Interp. *)
let icmp_code = function
  | Ir.Eq -> op_ceq
  | Ir.Ne -> op_ceq + 1
  | Ir.Ult | Ir.Slt -> op_ceq + 2
  | Ir.Ule | Ir.Sle -> op_ceq + 3
  | Ir.Ugt | Ir.Sgt -> op_ceq + 4
  | Ir.Uge | Ir.Sge -> op_ceq + 5

let compile (fn : Ir.func) ~(bufs : Runtime.bound array) : prog =
  let e =
    { e_code = Array.make 256 0; e_len = 0;
      e_fpool = []; e_nf = 0;
      e_loops = []; e_nloops = 0;
      e_whiles = []; e_nwhiles = 0 }
  in
  (* Literal integer constants seen so far (vid -> value). Loop bounds
     found here are baked into [l_const]; SSA dominance
     guarantees a bound's defining let is emitted before its loop. *)
  let consts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let emit_let (v : Ir.value) (rv : Ir.rvalue) =
    let d = v.Ir.vid in
    match rv with
    | Ir.Const c ->
      (match c with
       | Ir.Cidx x | Ir.Ci64 x ->
         Hashtbl.replace consts d x;
         emit e op_const_i; emit e d; emit e x
       | Ir.Cbool b ->
         emit e op_const_i; emit e d; emit e (if b then 1 else 0)
       | Ir.Cf64 x ->
         emit e op_const_f; emit e d; emit e (add_float e x))
    | Ir.Ibin (op, a, b) ->
      emit e (ibin_code op); emit e d; emit e a.Ir.vid; emit e b.Ir.vid
    | Ir.Fbin (op, a, b) ->
      emit e (fbin_code op); emit e d; emit e a.Ir.vid; emit e b.Ir.vid
    | Ir.Icmp (pred, a, b) ->
      emit e (icmp_code pred); emit e d; emit e a.Ir.vid; emit e b.Ir.vid
    | Ir.Select (c, a, b) ->
      emit e (if v.Ir.vty = Ir.F64 then op_self else op_seli);
      emit e d; emit e c.Ir.vid; emit e a.Ir.vid; emit e b.Ir.vid
    | Ir.Load (buf, idx) ->
      let b = bufs.(buf.Ir.bid) in
      emit e
        (match kind_of b with
         | KI -> op_loadi
         | KF -> op_loadf
         | KB -> op_loadb
         | KP -> op_loadp);
      emit e d; emit e idx.Ir.vid; emit e buf.Ir.bid;
      emit e b.Runtime.base; emit e b.Runtime.ebytes;
      emit e (Runtime.length_of b.Runtime.data)
    | Ir.Dim buf ->
      emit e op_dim; emit e d;
      emit e (Runtime.length_of bufs.(buf.Ir.bid).Runtime.data)
    | Ir.Cast (ty, x) ->
      let op =
        match (ty, x.Ir.vty) with
        | Ir.F64, (Ir.Index | Ir.I64 | Ir.I1) -> op_i2f
        | (Ir.Index | Ir.I64 | Ir.I1), Ir.F64 -> op_f2i
        | _, _ -> if v.Ir.vty = Ir.F64 then op_movf else op_movi
      in
      emit e op; emit e d; emit e x.Ir.vid
  in
  let rec emit_block ~top (blk : Ir.block) =
    List.iter (emit_stmt ~top) blk
  and emit_stmt ~top (s : Ir.stmt) =
    match s with
    | Ir.Let (v, rv) -> emit_let v rv
    | Ir.Store (buf, idx, v) ->
      let b = bufs.(buf.Ir.bid) in
      let isf = v.Ir.vty = Ir.F64 in
      let op =
        match (kind_of b, isf) with
        | KF, true -> op_storef
        | KI, false -> op_storei
        | KB, false -> op_storeb
        | KP, true -> op_storep
        (* Kind mismatch: defer to Runtime.write for the same fault. *)
        | _, _ -> op_storeg
      in
      emit e op;
      emit e buf.Ir.bid; emit e idx.Ir.vid; emit e v.Ir.vid;
      emit e b.Runtime.base; emit e b.Runtime.ebytes;
      emit e
        (if op = op_storeg then Bool.to_int isf
         else Runtime.length_of b.Runtime.data)
    | Ir.Prefetch p ->
      let b = bufs.(p.Ir.pbuf.Ir.bid) in
      emit e op_prefetch;
      emit e p.Ir.pidx.Ir.vid;
      emit e b.Runtime.base; emit e b.Runtime.ebytes;
      emit e p.Ir.plocality
    | Ir.For f ->
      let l = loop_of ~top f in
      emit e op_for_init;
      emit e l;
      emit e op_for_test;
      emit e l;
      emit e f.Ir.f_iv.Ir.vid;
      let exit_ph = pos e in
      emit e 0;
      let body = pos e in
      emit_block ~top:false f.Ir.f_body;
      emit e op_for_next;
      emit e l;
      (* Back to the FOR_TEST, 4 slots before the body. *)
      emit e (body - 4);
      patch e exit_ph (pos e);
      emit e op_for_exit;
      emit e l
    | Ir.While w ->
      let wi =
        add_while e
          { w_init = carry_of w.Ir.w_carried;
            w_yield =
              carry_of
                (List.map2 (fun (arg, _) y -> (arg, y)) w.Ir.w_carried
                   w.Ir.w_yield);
            w_res =
              carry_of
                (List.map2 (fun r (arg, _) -> (r, arg)) w.Ir.w_results
                   w.Ir.w_carried) }
      in
      emit e op_while_init;
      emit e wi;
      let cond_head = pos e in
      emit_block ~top:false w.Ir.w_cond;
      emit e op_while_test;
      emit e w.Ir.w_cond_v.Ir.vid;
      let exit_ph = pos e in
      emit e 0;
      emit_block ~top:false w.Ir.w_body;
      emit e op_while_next;
      emit e wi;
      emit e cond_head;
      patch e exit_ph (pos e);
      emit e op_while_exit;
      emit e wi
    | Ir.If (c, then_, else_) ->
      emit e op_if;
      emit e c.Ir.vid;
      let else_ph = pos e in
      emit e 0;
      emit_block ~top:false then_;
      (match else_ with
       | [] -> patch e else_ph (pos e)
       | _ ->
         emit e op_jump;
         let end_ph = pos e in
         emit e 0;
         patch e else_ph (pos e);
         emit_block ~top:false else_;
         patch e end_ph (pos e))
  and loop_of ~top (f : Ir.forloop) =
    let l_const =
      match
        ( Hashtbl.find_opt consts f.Ir.f_lo.Ir.vid,
          Hashtbl.find_opt consts f.Ir.f_hi.Ir.vid,
          Hashtbl.find_opt consts f.Ir.f_step.Ir.vid )
      with
      | Some lo, Some hi, Some step when step > 0 -> Some (lo, hi, step)
      | _ -> None
    in
    let info =
      { l_lo = f.Ir.f_lo.Ir.vid;
        l_hi = f.Ir.f_hi.Ir.vid;
        l_step = f.Ir.f_step.Ir.vid;
        l_top = top;
        l_const;
        l_init = carry_of f.Ir.f_carried;
        l_yield =
          carry_of
            (List.map2 (fun (arg, _) y -> (arg, y)) f.Ir.f_carried
               f.Ir.f_yield);
        l_res =
          carry_of
            (List.map2 (fun r (arg, _) -> (r, arg)) f.Ir.f_results
               f.Ir.f_carried) }
    in
    add_loop e info
  in
  emit_block ~top:true fn.Ir.fn_body;
  emit e op_halt;
  { p_fn = fn;
    p_code = Array.sub e.e_code 0 e.e_len;
    p_fpool = Array.of_list (List.rev e.e_fpool);
    p_loops = Array.of_list (List.rev e.e_loops);
    p_whiles = Array.of_list (List.rev e.e_whiles);
    p_bi =
      Array.map
        (fun b ->
          match b.Runtime.data with Runtime.RI a -> a | _ -> [||])
        bufs;
    p_bf =
      Array.map
        (fun b ->
          match b.Runtime.data with Runtime.RF a -> a | _ -> [||])
        bufs;
    p_bb =
      Array.map
        (fun b ->
          match b.Runtime.data with Runtime.RB s -> s | _ -> Bytes.empty)
        bufs;
    p_bp =
      (let empty = Runtime.pattern ~len:0 [||] in
       Array.map
         (fun b ->
           match b.Runtime.data with Runtime.RP p -> p | _ -> empty)
         bufs);
    p_bname = Array.map (fun b -> b.Runtime.buf.Ir.bname) bufs;
    p_bounds = bufs }

(* --- Execution ------------------------------------------------------- *)

(* Per-run mutable state: the out-of-order timing core (the same model
   as Interp), plus the per-static-loop slot arrays (iv, hi, step,
   riv). *)
type state = {
  ienv : int array;
  fenv : float array;
  ready : int array;
  rob : int array;
  rob_n : int;
  width : int;
  branch_miss : int;
  mem : Interp.mem;
  mutable icount : int;
  mutable slot : int;            (* icount mod rob_n, kept incrementally *)
  mutable qbase : int;           (* icount / width, kept incrementally *)
  mutable qrem : int;            (* icount mod width *)
  mutable last_retire : int;
  mutable bubble : int;
  mutable flops : int;
  mutable loads : int;
  mutable stores : int;
  mutable pfs : int;
  mutable slice : (int * int) option;
  liv : int array;               (* per-loop induction value *)
  lhi : int array;               (* per-loop upper bound *)
  lstep : int array;             (* per-loop step *)
  lriv : int array;              (* per-loop induction ready time *)
}

let[@inline] imax (a : int) (b : int) = if a >= b then a else b

(* Issue/retire arithmetic — Interp's [issue] with the division and
   modulo maintained incrementally. *)
let[@inline] issue_at st ops_ready =
  imax (st.qbase + st.bubble)
    (imax ops_ready (Array.unsafe_get st.rob st.slot))

let[@inline] retire st completion =
  let r =
    if completion >= st.last_retire then completion else st.last_retire
  in
  Array.unsafe_set st.rob st.slot r;
  st.last_retire <- r;
  st.icount <- st.icount + 1;
  let s = st.slot + 1 in
  st.slot <- (if s = st.rob_n then 0 else s);
  let q = st.qrem + 1 in
  if q = st.width then begin
    st.qrem <- 0;
    st.qbase <- st.qbase + 1
  end
  else st.qrem <- q

let[@inline] simple st lat ops_ready =
  let t = issue_at st ops_ready + lat in
  retire st t;
  t

let[@inline] copy_carry st (c : carry) =
  for k = 0 to Array.length c.car_dst - 1 do
    let s = Array.unsafe_get c.car_src k in
    let d = Array.unsafe_get c.car_dst k in
    if Array.unsafe_get c.car_isf k then
      Array.unsafe_set st.fenv d (Array.unsafe_get st.fenv s)
    else Array.unsafe_set st.ienv d (Array.unsafe_get st.ienv s);
    Array.unsafe_set st.ready d (Array.unsafe_get st.ready s)
  done

(* Loop entry: bounds read, step trap, top-level slice, carried init and
   the induction ready time — exactly Interp's [For] prologue. *)
let for_init st (loops : loop_info array) l =
  let info = Array.unsafe_get loops l in
  let ready = st.ready and ienv = st.ienv in
  let lo0, hi0, step =
    match info.l_const with
    | Some (lo, hi, step) ->
      (* Constant bounds baked in at compile time — no env reload
         and the positive-step trap is statically discharged. The
         induction ready time below still reads [ready] so virtual
         timing matches the generic stream exactly. *)
      (lo, hi, step)
    | None ->
      let lo0 = ienv.(info.l_lo) and hi0 = ienv.(info.l_hi) in
      let step = ienv.(info.l_step) in
      if step <= 0 then raise (Interp.Trap "non-positive loop step");
      (lo0, hi0, step)
  in
  let lov, hiv =
    if info.l_top then (
      match st.slice with
      | Some (slo, shi) ->
        st.slice <- None;
        (imax lo0 slo, (if hi0 <= shi then hi0 else shi))
      | None -> (lo0, hi0))
    else (lo0, hi0)
  in
  copy_carry st info.l_init;
  Array.unsafe_set st.lriv l (imax ready.(info.l_lo) ready.(info.l_hi));
  Array.unsafe_set st.liv l lov;
  Array.unsafe_set st.lhi l hiv;
  Array.unsafe_set st.lstep l step

(* Scalar-parameter binding, identical traps to Interp. *)
let rec bind_scalars ienv params values =
  match (params, values) with
  | [], [] -> ()
  | Ir.Pbuf _ :: ps, vs -> bind_scalars ienv ps vs
  | Ir.Pscalar (v : Ir.value) :: ps, x :: vs ->
    ienv.(v.Ir.vid) <- x;
    bind_scalars ienv ps vs
  | Ir.Pscalar v :: _, [] ->
    raise (Interp.Trap ("missing scalar argument for " ^ v.Ir.vname))
  | [], _ :: _ -> raise (Interp.Trap "too many scalar arguments")

let run ?slice ?(width = 3) ?(rob_size = 64) ?(branch_miss = 6) (p : prog)
    ~(scalars : int list) ~(mem : Interp.mem) : Interp.result =
  let n = p.p_fn.Ir.fn_nvalues in
  let nl = Array.length p.p_loops in
  let st =
    { ienv = Array.make n 0;
      fenv = Array.make n 0.;
      ready = Array.make n 0;
      rob = Array.make rob_size 0;
      rob_n = rob_size;
      width;
      branch_miss;
      mem;
      icount = 0; slot = 0; qbase = 0; qrem = 0;
      last_retire = 0; bubble = 0;
      flops = 0; loads = 0; stores = 0; pfs = 0;
      slice;
      liv = Array.make (imax 1 nl) 0;
      lhi = Array.make (imax 1 nl) 0;
      lstep = Array.make (imax 1 nl) 0;
      lriv = Array.make (imax 1 nl) 0 }
  in
  bind_scalars st.ienv p.p_fn.Ir.fn_params scalars;
  let code = p.p_code in
  let ienv = st.ienv and fenv = st.fenv and ready = st.ready in
  let fpool = p.p_fpool in
  let loops = p.p_loops and whiles = p.p_whiles in
  let bi = p.p_bi and bf = p.p_bf and bb = p.p_bb and bp = p.p_bp in
  let bname = p.p_bname and bounds = p.p_bounds in
  let mem = st.mem in
  let[@inline] opnd k = Array.unsafe_get code k in
  (* The load bodies (LOADI/LOADF/LOADB/LOADP) are written out at each opcode
     rather than shared through a helper: classic ocamlopt does not
     inline a local function into the dispatch loop. Each is the exact
     Interp ordering: issue on the index, present the (possibly OOB)
     address to the memory port with the destination vid as pc, retire
     at the fill time, then bounds-check. *)
  let rec go pc =
    match Array.unsafe_get code pc with
    | 0 (* HALT *) -> ()
    | 1 (* CONST_I *) ->
      let d = opnd (pc + 1) in
      let t = simple st int_lat 0 in
      Array.unsafe_set ienv d (opnd (pc + 2));
      Array.unsafe_set ready d t;
      go (pc + 3)
    | 2 (* CONST_F *) ->
      let d = opnd (pc + 1) in
      let t = simple st int_lat 0 in
      Array.unsafe_set fenv d (Array.unsafe_get fpool (opnd (pc + 2)));
      Array.unsafe_set ready d t;
      go (pc + 3)
    | 3 (* IADD *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (Array.unsafe_get ienv a + Array.unsafe_get ienv b);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 4 (* ISUB *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (Array.unsafe_get ienv a - Array.unsafe_get ienv b);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 5 (* IMUL *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (Array.unsafe_get ienv a * Array.unsafe_get ienv b);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 6 (* IDIV *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      let bv = Array.unsafe_get ienv b in
      if bv = 0 then raise (Interp.Trap "division by zero");
      Array.unsafe_set ienv d (Array.unsafe_get ienv a / bv);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 7 (* IREM *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      let bv = Array.unsafe_get ienv b in
      if bv = 0 then raise (Interp.Trap "rem by zero");
      Array.unsafe_set ienv d (Array.unsafe_get ienv a mod bv);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 8 (* IMIN *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      let av = Array.unsafe_get ienv a and bv = Array.unsafe_get ienv b in
      Array.unsafe_set ienv d (if av <= bv then av else bv);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 9 (* IMAX *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      let av = Array.unsafe_get ienv a and bv = Array.unsafe_get ienv b in
      Array.unsafe_set ienv d (if av >= bv then av else bv);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 10 (* IAND *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (Array.unsafe_get ienv a land Array.unsafe_get ienv b);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 11 (* IOR *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (Array.unsafe_get ienv a lor Array.unsafe_get ienv b);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 12 (* IXOR *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (Array.unsafe_get ienv a lxor Array.unsafe_get ienv b);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 13 (* ISHL *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (Array.unsafe_get ienv a lsl Array.unsafe_get ienv b);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 14 (* FADD *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      st.flops <- st.flops + 1;
      let t =
        simple st fp_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set fenv d
        (Array.unsafe_get fenv a +. Array.unsafe_get fenv b);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 15 (* FSUB *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      st.flops <- st.flops + 1;
      let t =
        simple st fp_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set fenv d
        (Array.unsafe_get fenv a -. Array.unsafe_get fenv b);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 16 (* FMUL *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      st.flops <- st.flops + 1;
      let t =
        simple st fp_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set fenv d
        (Array.unsafe_get fenv a *. Array.unsafe_get fenv b);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 17 (* FDIV *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      st.flops <- st.flops + 1;
      let t =
        simple st fp_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set fenv d
        (Array.unsafe_get fenv a /. Array.unsafe_get fenv b);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 18 (* FMIN *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      st.flops <- st.flops + 1;
      let t =
        simple st fp_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set fenv d
        (Float.min (Array.unsafe_get fenv a) (Array.unsafe_get fenv b));
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 19 (* FMAX *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      st.flops <- st.flops + 1;
      let t =
        simple st fp_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set fenv d
        (Float.max (Array.unsafe_get fenv a) (Array.unsafe_get fenv b));
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 20 (* CEQ *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (if Array.unsafe_get ienv a = Array.unsafe_get ienv b then 1 else 0);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 21 (* CNE *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (if Array.unsafe_get ienv a <> Array.unsafe_get ienv b then 1 else 0);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 22 (* CLT *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (if Array.unsafe_get ienv a < Array.unsafe_get ienv b then 1 else 0);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 23 (* CLE *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (if Array.unsafe_get ienv a <= Array.unsafe_get ienv b then 1 else 0);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 24 (* CGT *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (if Array.unsafe_get ienv a > Array.unsafe_get ienv b then 1 else 0);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 25 (* CGE *) ->
      let d = opnd (pc + 1) and a = opnd (pc + 2) and b = opnd (pc + 3) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b))
      in
      Array.unsafe_set ienv d
        (if Array.unsafe_get ienv a >= Array.unsafe_get ienv b then 1 else 0);
      Array.unsafe_set ready d t;
      go (pc + 4)
    | 26 (* SELI *) ->
      let d = opnd (pc + 1) and c = opnd (pc + 2) in
      let a = opnd (pc + 3) and b = opnd (pc + 4) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready c)
             (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b)))
      in
      Array.unsafe_set ienv d
        (if Array.unsafe_get ienv c <> 0 then Array.unsafe_get ienv a
         else Array.unsafe_get ienv b);
      Array.unsafe_set ready d t;
      go (pc + 5)
    | 27 (* SELF *) ->
      let d = opnd (pc + 1) and c = opnd (pc + 2) in
      let a = opnd (pc + 3) and b = opnd (pc + 4) in
      let t =
        simple st int_lat
          (imax (Array.unsafe_get ready c)
             (imax (Array.unsafe_get ready a) (Array.unsafe_get ready b)))
      in
      Array.unsafe_set fenv d
        (if Array.unsafe_get ienv c <> 0 then Array.unsafe_get fenv a
         else Array.unsafe_get fenv b);
      Array.unsafe_set ready d t;
      go (pc + 5)
    | 28 (* LOADI *) ->
      st.loads <- st.loads + 1;
      let d = opnd (pc + 1) and ix = opnd (pc + 2) in
      let i = Array.unsafe_get ienv ix in
      let t = issue_at st (Array.unsafe_get ready ix) in
      let done_at =
        mem.Interp.m_load ~pc:d ~addr:(opnd (pc + 4) + (i * opnd (pc + 5)))
          ~at:t
      in
      retire st done_at;
      if i < 0 || i >= opnd (pc + 6) then
        Runtime.fault "load %s[%d] out of bounds [0, %d)"
          (Array.unsafe_get bname (opnd (pc + 3))) i (opnd (pc + 6));
      Array.unsafe_set ienv d
        (Array.unsafe_get (Array.unsafe_get bi (opnd (pc + 3))) i);
      Array.unsafe_set ready d done_at;
      go (pc + 7)
    | 29 (* LOADF *) ->
      st.loads <- st.loads + 1;
      let d = opnd (pc + 1) and ix = opnd (pc + 2) in
      let i = Array.unsafe_get ienv ix in
      let t = issue_at st (Array.unsafe_get ready ix) in
      let done_at =
        mem.Interp.m_load ~pc:d ~addr:(opnd (pc + 4) + (i * opnd (pc + 5)))
          ~at:t
      in
      retire st done_at;
      if i < 0 || i >= opnd (pc + 6) then
        Runtime.fault "load %s[%d] out of bounds [0, %d)"
          (Array.unsafe_get bname (opnd (pc + 3))) i (opnd (pc + 6));
      Array.unsafe_set fenv d
        (Array.unsafe_get (Array.unsafe_get bf (opnd (pc + 3))) i);
      Array.unsafe_set ready d done_at;
      go (pc + 7)
    | 30 (* LOADB *) ->
      st.loads <- st.loads + 1;
      let d = opnd (pc + 1) and ix = opnd (pc + 2) in
      let i = Array.unsafe_get ienv ix in
      let t = issue_at st (Array.unsafe_get ready ix) in
      let done_at =
        st.mem.Interp.m_load ~pc:d ~addr:(opnd (pc + 4) + (i * opnd (pc + 5)))
          ~at:t
      in
      retire st done_at;
      if i < 0 || i >= opnd (pc + 6) then
        Runtime.fault "load %s[%d] out of bounds [0, %d)"
          (Array.unsafe_get bname (opnd (pc + 3))) i (opnd (pc + 6));
      Array.unsafe_set ienv d
        (Bytes.get_uint8 (Array.unsafe_get bb (opnd (pc + 3))) i);
      Array.unsafe_set ready d done_at;
      go (pc + 7)
    | 31 (* DIM *) ->
      let d = opnd (pc + 1) in
      let t = simple st int_lat 0 in
      Array.unsafe_set ienv d (opnd (pc + 2));
      Array.unsafe_set ready d t;
      go (pc + 3)
    | 32 (* I2F *) ->
      let d = opnd (pc + 1) and x = opnd (pc + 2) in
      let t = simple st int_lat (Array.unsafe_get ready x) in
      Array.unsafe_set fenv d (float_of_int (Array.unsafe_get ienv x));
      Array.unsafe_set ready d t;
      go (pc + 3)
    | 33 (* F2I *) ->
      let d = opnd (pc + 1) and x = opnd (pc + 2) in
      let t = simple st int_lat (Array.unsafe_get ready x) in
      Array.unsafe_set ienv d (int_of_float (Array.unsafe_get fenv x));
      Array.unsafe_set ready d t;
      go (pc + 3)
    | 34 (* MOVF *) ->
      let d = opnd (pc + 1) and x = opnd (pc + 2) in
      let t = simple st int_lat (Array.unsafe_get ready x) in
      Array.unsafe_set fenv d (Array.unsafe_get fenv x);
      Array.unsafe_set ready d t;
      go (pc + 3)
    | 35 (* MOVI *) ->
      let d = opnd (pc + 1) and x = opnd (pc + 2) in
      let t = simple st int_lat (Array.unsafe_get ready x) in
      Array.unsafe_set ienv d (Array.unsafe_get ienv x);
      Array.unsafe_set ready d t;
      go (pc + 3)
    | 36 (* STOREF *) ->
      st.stores <- st.stores + 1;
      let bid = opnd (pc + 1) and ix = opnd (pc + 2) and v = opnd (pc + 3) in
      let i = Array.unsafe_get ienv ix in
      let t =
        issue_at st
          (imax (Array.unsafe_get ready ix) (Array.unsafe_get ready v))
      in
      st.mem.Interp.m_store ~pc:(bid lor 0x10000)
        ~addr:(opnd (pc + 4) + (i * opnd (pc + 5)))
        ~at:t;
      retire st (t + st_lat);
      if i < 0 || i >= opnd (pc + 6) then
        Runtime.fault "store %s[%d] out of bounds [0, %d)"
          (Array.unsafe_get bname bid) i (opnd (pc + 6));
      Array.unsafe_set (Array.unsafe_get bf bid) i (Array.unsafe_get fenv v);
      go (pc + 7)
    | 37 (* STOREI *) ->
      st.stores <- st.stores + 1;
      let bid = opnd (pc + 1) and ix = opnd (pc + 2) and v = opnd (pc + 3) in
      let i = Array.unsafe_get ienv ix in
      let t =
        issue_at st
          (imax (Array.unsafe_get ready ix) (Array.unsafe_get ready v))
      in
      st.mem.Interp.m_store ~pc:(bid lor 0x10000)
        ~addr:(opnd (pc + 4) + (i * opnd (pc + 5)))
        ~at:t;
      retire st (t + st_lat);
      if i < 0 || i >= opnd (pc + 6) then
        Runtime.fault "store %s[%d] out of bounds [0, %d)"
          (Array.unsafe_get bname bid) i (opnd (pc + 6));
      Array.unsafe_set (Array.unsafe_get bi bid) i (Array.unsafe_get ienv v);
      go (pc + 7)
    | 38 (* STOREB *) ->
      st.stores <- st.stores + 1;
      let bid = opnd (pc + 1) and ix = opnd (pc + 2) and v = opnd (pc + 3) in
      let i = Array.unsafe_get ienv ix in
      let t =
        issue_at st
          (imax (Array.unsafe_get ready ix) (Array.unsafe_get ready v))
      in
      st.mem.Interp.m_store ~pc:(bid lor 0x10000)
        ~addr:(opnd (pc + 4) + (i * opnd (pc + 5)))
        ~at:t;
      retire st (t + st_lat);
      if i < 0 || i >= opnd (pc + 6) then
        Runtime.fault "store %s[%d] out of bounds [0, %d)"
          (Array.unsafe_get bname bid) i (opnd (pc + 6));
      Bytes.set_uint8 (Array.unsafe_get bb bid) i
        (Array.unsafe_get ienv v land 0xff);
      go (pc + 7)
    | 39 (* STOREG *) ->
      st.stores <- st.stores + 1;
      let bid = opnd (pc + 1) and ix = opnd (pc + 2) and v = opnd (pc + 3) in
      let i = Array.unsafe_get ienv ix in
      let t =
        issue_at st
          (imax (Array.unsafe_get ready ix) (Array.unsafe_get ready v))
      in
      st.mem.Interp.m_store ~pc:(bid lor 0x10000)
        ~addr:(opnd (pc + 4) + (i * opnd (pc + 5)))
        ~at:t;
      retire st (t + st_lat);
      Runtime.write (Array.unsafe_get bounds bid) i
        (if opnd (pc + 6) <> 0 then `F (Array.unsafe_get fenv v)
         else `I (Array.unsafe_get ienv v));
      go (pc + 7)
    | 40 (* PREFETCH *) ->
      st.pfs <- st.pfs + 1;
      let ix = opnd (pc + 1) in
      let i = Array.unsafe_get ienv ix in
      let t = issue_at st (Array.unsafe_get ready ix) in
      st.mem.Interp.m_prefetch
        ~addr:(opnd (pc + 2) + (i * opnd (pc + 3)))
        ~locality:(opnd (pc + 4)) ~at:t;
      retire st (t + 1);
      go (pc + 5)
    | 41 (* FOR_INIT *) ->
      for_init st loops (opnd (pc + 1));
      go (pc + 2)
    | 42 (* FOR_TEST *) ->
      let l = opnd (pc + 1) in
      let i = Array.unsafe_get st.liv l in
      if i < Array.unsafe_get st.lhi l then begin
        let riv = Array.unsafe_get st.lriv l in
        let ivd = opnd (pc + 2) in
        Array.unsafe_set ienv ivd i;
        Array.unsafe_set ready ivd riv;
        (* Loop overhead: induction update + compare-and-branch. *)
        let (_ : int) = simple st int_lat riv in
        let (_ : int) = simple st int_lat riv in
        go (pc + 4)
      end
      else go (opnd (pc + 3))
    | 43 (* FOR_NEXT *) ->
      let l = opnd (pc + 1) in
      copy_carry st (Array.unsafe_get loops l).l_yield;
      Array.unsafe_set st.lriv l (Array.unsafe_get st.lriv l + 1);
      Array.unsafe_set st.liv l
        (Array.unsafe_get st.liv l + Array.unsafe_get st.lstep l);
      go (opnd (pc + 2))
    | 44 (* FOR_EXIT *) ->
      st.bubble <- st.bubble + st.branch_miss;
      copy_carry st (Array.unsafe_get loops (opnd (pc + 1))).l_res;
      go (pc + 2)
    | 45 (* WHILE_INIT *) ->
      copy_carry st (Array.unsafe_get whiles (opnd (pc + 1))).w_init;
      go (pc + 2)
    | 46 (* WHILE_TEST *) ->
      let cv = opnd (pc + 1) in
      let (_ : int) = simple st int_lat (Array.unsafe_get ready cv) in
      if Array.unsafe_get ienv cv <> 0 then go (pc + 3)
      else go (opnd (pc + 2))
    | 47 (* WHILE_NEXT *) ->
      copy_carry st (Array.unsafe_get whiles (opnd (pc + 1))).w_yield;
      go (opnd (pc + 2))
    | 48 (* WHILE_EXIT *) ->
      st.bubble <- st.bubble + st.branch_miss;
      copy_carry st (Array.unsafe_get whiles (opnd (pc + 1))).w_res;
      go (pc + 2)
    | 49 (* IF *) ->
      let cv = opnd (pc + 1) in
      let (_ : int) = simple st int_lat (Array.unsafe_get ready cv) in
      if Array.unsafe_get ienv cv <> 0 then go (pc + 3)
      else go (opnd (pc + 2))
    | 50 (* JUMP *) -> go (opnd (pc + 1))
    | 51 (* LOADP *) ->
      st.loads <- st.loads + 1;
      let d = opnd (pc + 1) and ix = opnd (pc + 2) in
      let i = Array.unsafe_get ienv ix in
      let t = issue_at st (Array.unsafe_get ready ix) in
      let done_at =
        mem.Interp.m_load ~pc:d ~addr:(opnd (pc + 4) + (i * opnd (pc + 5)))
          ~at:t
      in
      retire st done_at;
      if i < 0 || i >= opnd (pc + 6) then
        Runtime.fault "load %s[%d] out of bounds [0, %d)"
          (Array.unsafe_get bname (opnd (pc + 3))) i (opnd (pc + 6));
      let p = Array.unsafe_get bp (opnd (pc + 3)) in
      let k = Runtime.pattern_find p i in
      if k >= 0 then
        Array.unsafe_set fenv d (Array.unsafe_get p.Runtime.p_vals k)
      else Array.unsafe_set fenv d 0.;
      Array.unsafe_set ready d done_at;
      go (pc + 7)
    | 52 (* STOREP *) ->
      st.stores <- st.stores + 1;
      let bid = opnd (pc + 1) and ix = opnd (pc + 2) and v = opnd (pc + 3) in
      let i = Array.unsafe_get ienv ix in
      let t =
        issue_at st
          (imax (Array.unsafe_get ready ix) (Array.unsafe_get ready v))
      in
      st.mem.Interp.m_store ~pc:(bid lor 0x10000)
        ~addr:(opnd (pc + 4) + (i * opnd (pc + 5)))
        ~at:t;
      retire st (t + st_lat);
      if i < 0 || i >= opnd (pc + 6) then
        Runtime.fault "store %s[%d] out of bounds [0, %d)"
          (Array.unsafe_get bname bid) i (opnd (pc + 6));
      let p = Array.unsafe_get bp bid in
      let k = Runtime.pattern_find p i in
      (* Outside the pattern only a zero may be stored (BSR block padding
         stores 0 x dot); the fault re-reads the register so the float is
         boxed on that path alone. *)
      if k >= 0 then
        Array.unsafe_set p.Runtime.p_vals k (Array.unsafe_get fenv v)
      else if Array.unsafe_get fenv v <> 0. then
        Runtime.outside_pattern (Array.unsafe_get bname bid) i
          (Array.unsafe_get fenv v);
      go (pc + 7)
    | _ -> assert false
  in
  go 0;
  { Interp.r_cycles = st.last_retire;
    r_instructions = st.icount;
    r_flops = st.flops;
    r_loads = st.loads;
    r_stores = st.stores;
    r_prefetches = st.pfs }
