(* Runtime buffer values and the simulated address space.

   The interpreter computes real results over these buffers while the
   timing model sees their simulated byte addresses. Bases are spaced and
   page-aligned so distinct buffers never share a cache line. *)

open Asap_ir

type rbuf =
  | RI of int array            (* index/position/coordinate buffers *)
  | RF of float array          (* f64 values *)
  | RB of Bytes.t              (* i8 values of binary matrices *)
  | RP of pattern              (* f64 values held only at a pattern *)

(* A dense f64 buffer of [p_len] elements whose host storage is only the
   sorted positions [p_pos] and their values [p_vals]; every other
   element reads as [0.] and may only be stored [±0.]. *)
and pattern = {
  p_len : int;
  p_pos : int array;
  p_vals : float array;
  mutable p_hint : int;        (* index of the last position found *)
}

let pattern ~len pos =
  let n = Array.length pos in
  for k = 0 to n - 1 do
    if pos.(k) < 0 || pos.(k) >= len || (k > 0 && pos.(k) <= pos.(k - 1)) then
      invalid_arg "Runtime.pattern: positions not sorted, distinct, in range"
  done;
  { p_len = len; p_pos = pos; p_vals = Array.make n 0.; p_hint = 0 }

(* Binary search over [pos.(lo) .. pos.(hi - 1)]; a top-level function
   so the search allocates no closure. *)
let rec search pos i lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let x = Array.unsafe_get pos mid in
    if x = i then mid else if x < i then search pos i (mid + 1) hi
    else search pos i lo mid

(* Kernels revisit one position (an inner dense loop) or step to the
   next, so the last hit and its successor are tried before searching. *)
let pattern_find p i =
  let pos = p.p_pos in
  let n = Array.length pos and h = p.p_hint in
  if h < n && Array.unsafe_get pos h = i then h
  else if h + 1 < n && Array.unsafe_get pos (h + 1) = i then begin
    p.p_hint <- h + 1;
    h + 1
  end
  else begin
    let k = search pos i 0 n in
    if k >= 0 then p.p_hint <- k;
    k
  end

(** A buffer bound into the address space. *)
type bound = {
  buf : Ir.buffer;
  data : rbuf;
  base : int;                  (* simulated base byte address *)
  ebytes : int;                (* element width for address arithmetic *)
}

let length_of = function
  | RI a -> Array.length a
  | RF a -> Array.length a
  | RB b -> Bytes.length b
  | RP p -> p.p_len

let check_data (buf : Ir.buffer) data =
  match (buf.Ir.belem, data) with
  | (Ir.EIdx32 | Ir.EIdx64), RI _ -> ()
  | Ir.EF64, (RF _ | RP _) -> ()
  | Ir.EI8, RB _ -> ()
  | _ ->
    invalid_arg
      (Printf.sprintf "Runtime: buffer %s bound to mismatched data"
         buf.Ir.bname)

(** [layout fn pairs] assigns addresses to the function's buffers. The
    result array is indexed by buffer id. *)
let layout (fn : Ir.func) (pairs : (Ir.buffer * rbuf) list) : bound array =
  let page = 4096 in
  let table = Array.make fn.Ir.fn_nbufs None in
  let next = ref page in
  List.iter
    (fun ((buf : Ir.buffer), data) ->
      check_data buf data;
      if buf.Ir.bid < 0 || buf.Ir.bid >= fn.Ir.fn_nbufs then
        invalid_arg "Runtime.layout: buffer id out of range";
      if table.(buf.Ir.bid) <> None then
        invalid_arg ("Runtime.layout: buffer bound twice: " ^ buf.Ir.bname);
      let ebytes = Ir.elem_bytes buf.Ir.belem in
      let bytes = length_of data * ebytes in
      let b = { buf; data; base = !next; ebytes } in
      next := (!next + bytes + page - 1) / page * page;
      next := !next + page;                    (* guard page *)
      table.(buf.Ir.bid) <- Some b)
    pairs;
  Array.mapi
    (fun i -> function
      | Some b -> b
      | None ->
        invalid_arg (Printf.sprintf "Runtime.layout: buffer id %d unbound" i))
    table

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let outside_pattern name i x =
  fault "store %s[%d] = %g outside the buffer's pattern" name i x

(** [read b i] reads element [i], raising [Fault] when out of bounds — the
    access fault the step-2 bound must prevent (paper §3.2). *)
let read (b : bound) i =
  let n = length_of b.data in
  if i < 0 || i >= n then
    fault "load %s[%d] out of bounds [0, %d)" b.buf.Ir.bname i n;
  match b.data with
  | RI a -> `I a.(i)
  | RF a -> `F a.(i)
  | RB s -> `I (Bytes.get_uint8 s i)
  | RP p ->
    let k = pattern_find p i in
    `F (if k >= 0 then p.p_vals.(k) else 0.)

let write (b : bound) i v =
  let n = length_of b.data in
  if i < 0 || i >= n then
    fault "store %s[%d] out of bounds [0, %d)" b.buf.Ir.bname i n;
  match (b.data, v) with
  | RI a, `I x -> a.(i) <- x
  | RF a, `F x -> a.(i) <- x
  | RB s, `I x -> Bytes.set_uint8 s i (x land 0xff)
  | RP p, `F x ->
    let k = pattern_find p i in
    if k >= 0 then p.p_vals.(k) <- x
    else if x <> 0. then outside_pattern b.buf.Ir.bname i x
  | (RF _ | RB _ | RI _ | RP _), _ ->
    fault "store %s: value kind mismatch" b.buf.Ir.bname

(** [addr b i] is the simulated byte address of element [i] (allowed to be
    out of bounds: prefetches never fault). *)
let addr (b : bound) i = b.base + (i * b.ebytes)
