(* Coordinate-list (COO) exchange form.

   The unsorted element list every other representation is built from:
   generators and Matrix Market readers produce it, [Storage.pack]
   consumes it. Coordinates are stored structure-of-arrays: one
   nnz-length int array per dimension, so building, sorting and packing
   never box a per-element tuple. *)

type t = {
  dims : int array;       (* tensor shape, one extent per dimension *)
  crd : int array array;  (* crd.(d).(k): dimension-d coordinate of nnz k *)
  vals : float array;
}

let rank t = Array.length t.dims
let nnz t = Array.length t.vals

let create ~dims ~crd ~vals =
  if Array.length crd <> Array.length dims then
    invalid_arg "Coo.create: coordinate rank mismatch";
  Array.iteri
    (fun d c ->
      if Array.length c <> Array.length vals then
        invalid_arg "Coo.create: crd/vals length mismatch";
      let ext = dims.(d) in
      Array.iter
        (fun x ->
          if x < 0 || x >= ext then
            invalid_arg
              (Printf.sprintf "Coo.create: coordinate %d out of bound %d" x
                 ext))
        c)
    crd;
  { dims; crd; vals }

(** [of_triples ~rows ~cols triples] builds a matrix from (i, j, v) triples. *)
let of_triples ~rows ~cols triples =
  let n = List.length triples in
  let ci = Array.make n 0 and cj = Array.make n 0 and vals = Array.make n 0. in
  List.iteri
    (fun k (i, j, v) ->
      ci.(k) <- i;
      cj.(k) <- j;
      vals.(k) <- v)
    triples;
  create ~dims:[| rows; cols |] ~crd:[| ci; cj |] ~vals

(* Number of bits needed to write every value below [n]. *)
let bits n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

(* [radix_sort keys vals extents] stably sorts elements [0, n)
   lexicographically by [keys.(0)], then [keys.(1)], and so on, where
   [keys.(l).(k)] lies in [0, extents.(l)), carrying [vals] along. It is
   an LSD radix sort: the least significant level first, each level split
   into equal-width counting passes, so the element order is key-major
   and original-index-minor. The digit width grows with [n] from 8 to 11
   bits and shrinks to what the extent needs, so the bucket array scales
   with both. Each pass computes every element's destination once and
   then moves each array through it with sequential reads. The input
   arrays are reused as scratch; the sorted ones are returned. *)
let radix_sort keys vals extents =
  let n = Array.length vals in
  (* [t]'s fields are public, so a record built without [create] may be
     ragged; the unchecked accesses below need every key array full. *)
  if Array.exists (fun kk -> Array.length kk <> n) keys then
    invalid_arg "Coo.sorted_dedup: crd/vals length mismatch";
  let wmax = max 8 (min 11 (bits n)) in
  let plan =
    Array.map
      (fun ext ->
        let b = bits ext in
        let passes = (b + wmax - 1) / wmax in
        (passes, if passes = 0 then 0 else (b + passes - 1) / passes))
      extents
  in
  let w_top = Array.fold_left (fun acc (_, w) -> max acc w) 0 plan in
  let count = Array.make ((1 lsl w_top) + 1) 0 in
  let dest = Array.make n 0 in
  let spare = Array.map (fun _ -> Array.make n 0) keys in
  let vals = ref vals and spare_vals = ref (Array.make n 0.) in
  (* Unchecked accesses below: digits are masked below the bucket count,
     and the bucket counts sum to [n], so [dest] is a permutation of
     [0, n) whatever the keys hold. *)
  let move (src : int array) dst =
    for k = 0 to n - 1 do
      Array.unsafe_set dst (Array.unsafe_get dest k) (Array.unsafe_get src k)
    done
  in
  for l = Array.length keys - 1 downto 0 do
    let passes, w = plan.(l) in
    let mask = (1 lsl w) - 1 in
    for p = 0 to passes - 1 do
      let shift = p * w and kk = keys.(l) in
      Array.fill count 0 (mask + 2) 0;
      for k = 0 to n - 1 do
        let d = ((Array.unsafe_get kk k lsr shift) land mask) + 1 in
        Array.unsafe_set count d (Array.unsafe_get count d + 1)
      done;
      (* A digit every element shares leaves the order as it is. *)
      let shared = ref false in
      for d = 1 to mask + 1 do if count.(d) = n then shared := true done;
      if not !shared then begin
        for d = 1 to mask do count.(d) <- count.(d) + count.(d - 1) done;
        for k = 0 to n - 1 do
          let d = (Array.unsafe_get kk k lsr shift) land mask in
          let at = Array.unsafe_get count d in
          Array.unsafe_set count d (at + 1);
          Array.unsafe_set dest k at
        done;
        Array.iteri
          (fun j src ->
            move src spare.(j);
            keys.(j) <- spare.(j);
            spare.(j) <- src)
          keys;
        let src = !vals and dst = !spare_vals in
        for k = 0 to n - 1 do
          Array.unsafe_set dst (Array.unsafe_get dest k)
            (Array.unsafe_get src k)
        done;
        spare_vals := src;
        vals := dst
      end
    done
  done;
  !vals

(** [sorted_dedup ?perm t] returns a copy of [t] sorted lexicographically by
    the (optionally permuted) dimension order, with duplicate coordinates
    summed — the canonical form sparsification's [sorted = true] expects.
    The sort is stable, so each duplicate group is summed from [0.] in
    original element order. *)
let sorted_dedup ?perm t =
  let perm =
    match perm with Some p -> p | None -> Array.init (rank t) Fun.id
  in
  let n = nnz t in
  (* Level-ordered copies, sorted in place. *)
  let keys = Array.map (fun d -> Array.copy t.crd.(d)) perm in
  let vals =
    radix_sort keys (Array.copy t.vals) (Array.map (fun d -> t.dims.(d)) perm)
  in
  let r = Array.length keys in
  let same a b =
    let l = ref (r - 1) in
    while !l >= 0 && keys.(!l).(a) = keys.(!l).(b) do decr l done;
    !l < 0
  in
  (* Compact in place: group [m] is written at or below its first
     element, which later groups never read. *)
  let m = ref 0 and k = ref 0 in
  while !k < n do
    let first = !k in
    let v = ref 0. in
    while !k < n && same first !k do
      v := !v +. vals.(!k);
      incr k
    done;
    for l = 0 to r - 1 do keys.(l).(!m) <- keys.(l).(first) done;
    vals.(!m) <- !v;
    incr m
  done;
  let trim a = if !m = n then a else Array.sub a 0 !m in
  let crd = Array.make r [||] in
  Array.iteri (fun l d -> crd.(d) <- trim keys.(l)) perm;
  { dims = Array.copy t.dims; crd; vals = trim vals }

(** [positions t] is the sorted array of the distinct row-major dense
    positions [i * cols + j] of a matrix's entries: one radix sort of the
    positions as single keys, then an in-place dedup. *)
let positions t =
  if rank t <> 2 then invalid_arg "Coo.positions: not a matrix";
  let n = nnz t and cols = t.dims.(1) in
  let ci = t.crd.(0) and cj = t.crd.(1) in
  let keys = [| Array.init n (fun k -> (ci.(k) * cols) + cj.(k)) |] in
  ignore (radix_sort keys (Array.make n 0.) [| t.dims.(0) * cols |]);
  let key = keys.(0) in
  let m = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || key.(k) <> key.(k - 1) then begin
      key.(!m) <- key.(k);
      incr m
    end
  done;
  if !m = n then key else Array.sub key 0 !m

(** [to_dense t] materialises a row-major dense array. *)
let to_dense t =
  let total = Array.fold_left ( * ) 1 t.dims in
  let d = Array.make total 0. in
  let strides = Array.make (rank t) 1 in
  for l = rank t - 2 downto 0 do
    strides.(l) <- strides.(l + 1) * t.dims.(l + 1)
  done;
  for k = 0 to nnz t - 1 do
    let off = ref 0 in
    Array.iteri (fun l c -> off := !off + (c.(k) * strides.(l))) t.crd;
    d.(!off) <- d.(!off) +. t.vals.(k)
  done;
  d

(** Structural statistics used by workload selection (paper §4.2). *)
type stats = {
  s_rows : int;
  s_cols : int;
  s_nnz : int;
  s_row_min : int;
  s_row_max : int;
  s_row_mean : float;
  s_footprint_bytes : int;     (* CSR with 4-byte indices + f64 values *)
}

let matrix_stats t =
  let index_bytes = 4 in
  if rank t <> 2 then invalid_arg "Coo.matrix_stats: not a matrix";
  let rows = t.dims.(0) and cols = t.dims.(1) in
  let per_row = Array.make rows 0 in
  Array.iter (fun i -> per_row.(i) <- per_row.(i) + 1) t.crd.(0);
  let mn = Array.fold_left min max_int per_row
  and mx = Array.fold_left max 0 per_row in
  let n = nnz t in
  { s_rows = rows; s_cols = cols; s_nnz = n;
    s_row_min = (if rows = 0 then 0 else mn);
    s_row_max = mx;
    s_row_mean = (if rows = 0 then 0. else float_of_int n /. float_of_int rows);
    s_footprint_bytes =
      ((rows + 1) * index_bytes) + (n * index_bytes) + (n * 8) }
