(* Reference kernel implementations over the COO exchange form.

   Plain OCaml, no IR, no simulator: the ground truth the interpreted
   sparsified code is checked against in tests and examples. *)

module Coo = Asap_tensor.Coo

(** [spmv coo c] computes a = B c. *)
let spmv (coo : Coo.t) (c : float array) : float array =
  if Coo.rank coo <> 2 then invalid_arg "Reference.spmv: not a matrix";
  if Array.length c <> coo.Coo.dims.(1) then
    invalid_arg "Reference.spmv: vector length mismatch";
  let a = Array.make coo.Coo.dims.(0) 0. in
  let ci = coo.Coo.crd.(0) and cj = coo.Coo.crd.(1) in
  Array.iteri (fun k v -> a.(ci.(k)) <- a.(ci.(k)) +. (v *. c.(cj.(k))))
    coo.Coo.vals;
  a

(** [spmm coo cm ~n] computes A = B C with row-major C of [n] columns. *)
let spmm (coo : Coo.t) (cm : float array) ~n : float array =
  if Coo.rank coo <> 2 then invalid_arg "Reference.spmm: not a matrix";
  if Array.length cm <> coo.Coo.dims.(1) * n then
    invalid_arg "Reference.spmm: C shape mismatch";
  let a = Array.make (coo.Coo.dims.(0) * n) 0. in
  Array.iteri
    (fun idx v ->
      let i = coo.Coo.crd.(0).(idx) and j = coo.Coo.crd.(1).(idx) in
      for k = 0 to n - 1 do
        a.((i * n) + k) <- a.((i * n) + k) +. (v *. cm.((j * n) + k))
      done)
    coo.Coo.vals;
  a

(** [sddmm coo am bm ~kk] computes the sampled dense-dense product
    O(i,j) = S(i,j) * sum_k A(i,k) * B(k,j) with row-major A (rows x kk)
    and B (kk x cols); the result is the dense row-major rows x cols
    array, zero wherever S has no stored entry. *)
let sddmm (coo : Coo.t) (am : float array) (bm : float array) ~kk :
    float array =
  if Coo.rank coo <> 2 then invalid_arg "Reference.sddmm: not a matrix";
  let rows = coo.Coo.dims.(0) and cols = coo.Coo.dims.(1) in
  if Array.length am <> rows * kk then
    invalid_arg "Reference.sddmm: A shape mismatch";
  if Array.length bm <> kk * cols then
    invalid_arg "Reference.sddmm: B shape mismatch";
  let o = Array.make (rows * cols) 0. in
  Array.iteri
    (fun idx s ->
      let i = coo.Coo.crd.(0).(idx) and j = coo.Coo.crd.(1).(idx) in
      (* Accumulate in k order with the sample factored into each term,
         matching the lowered loop (out += S*A*B per k) bit for bit. *)
      let acc = ref o.((i * cols) + j) in
      for k = 0 to kk - 1 do
        acc := !acc +. (s *. am.((i * kk) + k) *. bm.((k * cols) + j))
      done;
      o.((i * cols) + j) <- !acc)
    coo.Coo.vals;
  o

(** [ttv coo c] computes the rank-3 contraction a(i,j) = B(i,j,k) c(k),
    row-major over (i, j). *)
let ttv (coo : Coo.t) (c : float array) : float array =
  if Coo.rank coo <> 3 then invalid_arg "Reference.ttv: not rank 3";
  if Array.length c <> coo.Coo.dims.(2) then
    invalid_arg "Reference.ttv: vector length mismatch";
  let nj = coo.Coo.dims.(1) in
  let a = Array.make (coo.Coo.dims.(0) * nj) 0. in
  let crd = coo.Coo.crd in
  Array.iteri
    (fun k v ->
      let off = (crd.(0).(k) * nj) + crd.(1).(k) in
      a.(off) <- a.(off) +. (v *. c.(crd.(2).(k))))
    coo.Coo.vals;
  a

(** Boolean SpMV for binary matrices: a_i |= B_ij & c_j (paper §4.2). *)
let spmv_binary (coo : Coo.t) (c : int array) : int array =
  let a = Array.make coo.Coo.dims.(0) 0 in
  let ci = coo.Coo.crd.(0) and cj = coo.Coo.crd.(1) in
  Array.iteri
    (fun k v ->
      let b = if v <> 0. then 1 else 0 in
      a.(ci.(k)) <- a.(ci.(k)) lor (b land c.(cj.(k))))
    coo.Coo.vals;
  a

(** Element-wise reference over dense expansions: union add. *)
let ewise_add (b : Coo.t) (c : Coo.t) : float array =
  let db = Coo.to_dense b and dc = Coo.to_dense c in
  Array.mapi (fun i x -> x +. dc.(i)) db

(** Element-wise reference: intersection multiply. *)
let ewise_mul (b : Coo.t) (c : Coo.t) : float array =
  let db = Coo.to_dense b and dc = Coo.to_dense c in
  Array.mapi (fun i x -> x *. dc.(i)) db

(** Boolean SpMM. *)
let spmm_binary (coo : Coo.t) (cm : int array) ~n : int array =
  let a = Array.make (coo.Coo.dims.(0) * n) 0 in
  Array.iteri
    (fun idx v ->
      let i = coo.Coo.crd.(0).(idx) and j = coo.Coo.crd.(1).(idx) in
      let b = if v <> 0. then 1 else 0 in
      for k = 0 to n - 1 do
        a.((i * n) + k) <- a.((i * n) + k) lor (b land cm.((j * n) + k))
      done)
    coo.Coo.vals;
  a
