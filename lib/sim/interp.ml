(* Execution-driven interpretation of Ir functions with an
   interval-simulation-style timing model.

   Functional semantics: every operation computes its real value over the
   runtime buffers, so kernel outputs can be checked against references.

   Timing semantics (per core):
   - every SSA value carries a ready time;
   - instruction k issues at
       max(k / width, operand ready times, retire time of instruction k-R)
     where R is the effective out-of-order window — the ring of retire
     times bounds how far execution can run ahead of a stalled miss, which
     is what limits the memory-level parallelism of non-prefetched code;
   - loads complete when the memory system says the data is ready; stores
     and prefetches retire immediately (store buffer / no-fault semantics);
   - loop exits charge a branch-mispredict bubble, so short inner segments
     pay the loop-overhead costs the paper associates with short rows. *)

open Asap_ir

(** The memory port: single-core runs wire it to {!Hierarchy} directly,
    multi-core runs route it through effect handlers (see {!Multicore}). *)
type mem = {
  m_load : pc:int -> addr:int -> at:int -> int;     (* returns ready time *)
  m_store : pc:int -> addr:int -> at:int -> unit;
  m_prefetch : addr:int -> locality:int -> at:int -> unit;
}

type result = {
  r_cycles : int;
  r_instructions : int;
  r_flops : int;
  r_loads : int;
  r_stores : int;
  r_prefetches : int;
}

exception Trap of string

let int_lat = 1
let fp_lat = 3
let st_lat = 1

let run ?slice ?(width = 3) ?(rob_size = 64) ?(branch_miss = 6)
    (fn : Ir.func) ~(bufs : Runtime.bound array) ~(scalars : int list)
    ~(mem : mem) : result =
  let n = fn.Ir.fn_nvalues in
  let ienv = Array.make n 0 in
  let fenv = Array.make n 0. in
  let ready = Array.make n 0 in
  (* Core state. *)
  let rob_n = rob_size in
  let rob = Array.make rob_n 0 in
  let icount = ref 0 in
  let last_retire = ref 0 in
  let bubble = ref 0 in
  let flops = ref 0 and loads = ref 0 and stores = ref 0 and pfs = ref 0 in
  let issue ops_ready =
    let slot = !icount mod rob_n in
    let base = (!icount / width) + !bubble in
    (max base (max ops_ready rob.(slot)), slot)
  in
  let retire slot completion =
    let r = max completion !last_retire in
    rob.(slot) <- r;
    last_retire := r;
    incr icount
  in
  let simple_instr ?(lat = int_lat) ops_ready =
    let t, slot = issue ops_ready in
    retire slot (t + lat);
    t + lat
  in
  (* Bind scalar parameters. *)
  let rec bind_scalars params values =
    match (params, values) with
    | [], [] -> ()
    | Ir.Pbuf _ :: ps, vs -> bind_scalars ps vs
    | Ir.Pscalar v :: ps, x :: vs ->
      ienv.(v.Ir.vid) <- x;
      bind_scalars ps vs
    | Ir.Pscalar v :: _, [] ->
      raise (Trap ("missing scalar argument for " ^ v.Ir.vname))
    | [], _ :: _ -> raise (Trap "too many scalar arguments")
  in
  bind_scalars fn.Ir.fn_params scalars;
  let geti (v : Ir.value) = ienv.(v.Ir.vid) in
  let getf (v : Ir.value) = fenv.(v.Ir.vid) in
  let rdy (v : Ir.value) = ready.(v.Ir.vid) in
  let set_i (v : Ir.value) x t =
    ienv.(v.Ir.vid) <- x;
    ready.(v.Ir.vid) <- t
  in
  let set_f (v : Ir.value) x t =
    fenv.(v.Ir.vid) <- x;
    ready.(v.Ir.vid) <- t
  in
  let is_float (v : Ir.value) = v.Ir.vty = Ir.F64 in
  let copy_val (dst : Ir.value) (src : Ir.value) t =
    if is_float dst then set_f dst (getf src) t else set_i dst (geti src) t
  in
  let eval_ibin op a b =
    match op with
    | Ir.Iadd -> a + b
    | Ir.Isub -> a - b
    | Ir.Imul -> a * b
    | Ir.Idiv -> if b = 0 then raise (Trap "division by zero") else a / b
    | Ir.Irem -> if b = 0 then raise (Trap "rem by zero") else a mod b
    | Ir.Imin -> min a b
    | Ir.Imax -> max a b
    | Ir.Iand -> a land b
    | Ir.Ior -> a lor b
    | Ir.Ixor -> a lxor b
    | Ir.Ishl -> a lsl b
  in
  let eval_fbin op a b =
    match op with
    | Ir.Fadd -> a +. b
    | Ir.Fsub -> a -. b
    | Ir.Fmul -> a *. b
    | Ir.Fdiv -> a /. b
    | Ir.Fmin -> Float.min a b
    | Ir.Fmax -> Float.max a b
  in
  let eval_icmp pred a b =
    (* Indices and sizes are non-negative throughout, so signed and
       unsigned orders coincide in practice. *)
    match pred with
    | Ir.Eq -> a = b
    | Ir.Ne -> a <> b
    | Ir.Ult | Ir.Slt -> a < b
    | Ir.Ule | Ir.Sle -> a <= b
    | Ir.Ugt | Ir.Sgt -> a > b
    | Ir.Uge | Ir.Sge -> a >= b
  in
  let exec_let (v : Ir.value) (rv : Ir.rvalue) =
    match rv with
    | Ir.Const c ->
      let t = simple_instr 0 in
      (match c with
       | Ir.Cidx x | Ir.Ci64 x -> set_i v x t
       | Ir.Cf64 x -> set_f v x t
       | Ir.Cbool b -> set_i v (if b then 1 else 0) t)
    | Ir.Ibin (op, a, b) ->
      let t = simple_instr (max (rdy a) (rdy b)) in
      set_i v (eval_ibin op (geti a) (geti b)) t
    | Ir.Fbin (op, a, b) ->
      incr flops;
      let t = simple_instr ~lat:fp_lat (max (rdy a) (rdy b)) in
      set_f v (eval_fbin op (getf a) (getf b)) t
    | Ir.Icmp (pred, a, b) ->
      let t = simple_instr (max (rdy a) (rdy b)) in
      set_i v (if eval_icmp pred (geti a) (geti b) then 1 else 0) t
    | Ir.Select (c, a, b) ->
      let t = simple_instr (max (rdy c) (max (rdy a) (rdy b))) in
      if is_float v then set_f v (if geti c <> 0 then getf a else getf b) t
      else set_i v (if geti c <> 0 then geti a else geti b) t
    | Ir.Load (buf, idx) ->
      incr loads;
      let b = bufs.(buf.Ir.bid) in
      let i = geti idx in
      let t, slot = issue (rdy idx) in
      let done_at =
        mem.m_load ~pc:v.Ir.vid ~addr:(b.Runtime.base + (i * b.Runtime.ebytes))
          ~at:t
      in
      retire slot done_at;
      (* Inlined Runtime.read: loads are the hottest operation and the
         polymorphic-variant return would box every float. *)
      (match b.Runtime.data with
       | Runtime.RI a ->
         if i < 0 || i >= Array.length a then
           Runtime.fault "load %s[%d] out of bounds [0, %d)" buf.Ir.bname i
             (Array.length a);
         ienv.(v.Ir.vid) <- a.(i);
         ready.(v.Ir.vid) <- done_at
       | Runtime.RF a ->
         if i < 0 || i >= Array.length a then
           Runtime.fault "load %s[%d] out of bounds [0, %d)" buf.Ir.bname i
             (Array.length a);
         fenv.(v.Ir.vid) <- a.(i);
         ready.(v.Ir.vid) <- done_at
       | Runtime.RB s ->
         if i < 0 || i >= Bytes.length s then
           Runtime.fault "load %s[%d] out of bounds [0, %d)" buf.Ir.bname i
             (Bytes.length s);
         ienv.(v.Ir.vid) <- Bytes.get_uint8 s i;
         ready.(v.Ir.vid) <- done_at
       | Runtime.RP p ->
         if i < 0 || i >= p.Runtime.p_len then
           Runtime.fault "load %s[%d] out of bounds [0, %d)" buf.Ir.bname i
             p.Runtime.p_len;
         let k = Runtime.pattern_find p i in
         fenv.(v.Ir.vid) <- (if k >= 0 then p.Runtime.p_vals.(k) else 0.);
         ready.(v.Ir.vid) <- done_at)
    | Ir.Dim buf ->
      let t = simple_instr 0 in
      set_i v (Runtime.length_of bufs.(buf.Ir.bid).Runtime.data) t
    | Ir.Cast (ty, x) ->
      let t = simple_instr (rdy x) in
      (match (ty, x.Ir.vty) with
       | Ir.F64, (Ir.Index | Ir.I64 | Ir.I1) -> set_f v (float_of_int (geti x)) t
       | (Ir.Index | Ir.I64 | Ir.I1), Ir.F64 -> set_i v (int_of_float (getf x)) t
       | _, _ -> copy_val v x t)
  in
  let loop_overhead ops_ready =
    (* Induction update plus compare-and-branch, predicted taken. *)
    let (_ : int) = simple_instr ops_ready in
    let (_ : int) = simple_instr ops_ready in
    ()
  in
  let mispredict () = bubble := !bubble + branch_miss in
  let slice_pending = ref (match slice with None -> None | Some s -> Some s) in
  let rec exec_block ~top (blk : Ir.block) = List.iter (exec_stmt ~top) blk
  and exec_stmt ~top (s : Ir.stmt) =
    match s with
    | Ir.Let (v, rv) -> exec_let v rv
    | Ir.Store (buf, idx, v) ->
      incr stores;
      let b = bufs.(buf.Ir.bid) in
      let i = geti idx in
      let t, slot = issue (max (rdy idx) (rdy v)) in
      mem.m_store ~pc:(buf.Ir.bid lor 0x10000) ~addr:(Runtime.addr b i) ~at:t;
      retire slot (t + st_lat);
      Runtime.write b i (if is_float v then `F (getf v) else `I (geti v))
    | Ir.Prefetch p ->
      incr pfs;
      let b = bufs.(p.Ir.pbuf.Ir.bid) in
      let i = geti p.Ir.pidx in
      let t, slot = issue (rdy p.Ir.pidx) in
      mem.m_prefetch ~addr:(Runtime.addr b i) ~locality:p.Ir.plocality ~at:t;
      retire slot (t + 1)
    | Ir.For f ->
      let lo0 = geti f.Ir.f_lo and hi0 = geti f.Ir.f_hi in
      let step = geti f.Ir.f_step in
      if step <= 0 then raise (Trap "non-positive loop step");
      let lo, hi =
        if top then (
          match !slice_pending with
          | Some (slo, shi) ->
            slice_pending := None;
            (max lo0 slo, min hi0 shi)
          | None -> (lo0, hi0))
        else (lo0, hi0)
      in
      (* Initialise carried values. *)
      List.iter (fun (arg, init) -> copy_val arg init (rdy init)) f.Ir.f_carried;
      let riv = ref (max (rdy f.Ir.f_lo) (rdy f.Ir.f_hi)) in
      let iv = ref lo in
      while !iv < hi do
        set_i f.Ir.f_iv !iv !riv;
        loop_overhead !riv;
        exec_block ~top:false f.Ir.f_body;
        List.iter2
          (fun (arg, _) y -> copy_val arg y (rdy y))
          f.Ir.f_carried f.Ir.f_yield;
        riv := !riv + 1;
        iv := !iv + step
      done;
      mispredict ();
      List.iter2
        (fun r (arg, _) -> copy_val r arg (rdy arg))
        f.Ir.f_results f.Ir.f_carried
    | Ir.While w ->
      List.iter (fun (arg, init) -> copy_val arg init (rdy init)) w.Ir.w_carried;
      let continue_ = ref true in
      while !continue_ do
        exec_block ~top:false w.Ir.w_cond;
        let (_ : int) = simple_instr (rdy w.Ir.w_cond_v) in
        if geti w.Ir.w_cond_v <> 0 then begin
          exec_block ~top:false w.Ir.w_body;
          List.iter2
            (fun (arg, _) y -> copy_val arg y (rdy y))
            w.Ir.w_carried w.Ir.w_yield
        end
        else continue_ := false
      done;
      mispredict ();
      List.iter2
        (fun r (arg, _) -> copy_val r arg (rdy arg))
        w.Ir.w_results w.Ir.w_carried
    | Ir.If (c, then_, else_) ->
      let (_ : int) = simple_instr (rdy c) in
      if geti c <> 0 then exec_block ~top:false then_
      else exec_block ~top:false else_
  in
  exec_block ~top:true fn.Ir.fn_body;
  { r_cycles = !last_retire;
    r_instructions = !icount;
    r_flops = !flops;
    r_loads = !loads;
    r_stores = !stores;
    r_prefetches = !pfs }
