(* Coordinate-list (COO) exchange form.

   The unsorted triple/tuple list every other representation is built from:
   generators and Matrix Market readers produce it, [Storage.pack] consumes
   it. Coordinates are stored as an [nnz][rank] array in dimension order. *)

type t = {
  dims : int array;            (* tensor shape, one extent per dimension *)
  coords : int array array;    (* coords.(k) is the rank-length tuple of nnz k *)
  vals : float array;
}

let rank t = Array.length t.dims
let nnz t = Array.length t.vals

let create ~dims ~coords ~vals =
  if Array.length coords <> Array.length vals then
    invalid_arg "Coo.create: coords/vals length mismatch";
  Array.iter
    (fun c ->
      if Array.length c <> Array.length dims then
        invalid_arg "Coo.create: coordinate rank mismatch";
      Array.iteri
        (fun d x ->
          if x < 0 || x >= dims.(d) then
            invalid_arg
              (Printf.sprintf "Coo.create: coordinate %d out of bound %d" x
                 dims.(d)))
        c)
    coords;
  { dims; coords; vals }

(** [of_triples ~rows ~cols triples] builds a matrix from (i, j, v) triples. *)
let of_triples ~rows ~cols triples =
  let n = List.length triples in
  let coords = Array.make n [||] and vals = Array.make n 0. in
  List.iteri
    (fun k (i, j, v) ->
      coords.(k) <- [| i; j |];
      vals.(k) <- v)
    triples;
  create ~dims:[| rows; cols |] ~coords ~vals

(** Lexicographic comparison of coordinates under a permutation: position
    [l] of the sort key is dimension [perm.(l)]. *)
let compare_perm perm a b =
  let rec go l =
    if l = Array.length perm then 0
    else
      let c = compare a.(perm.(l)) b.(perm.(l)) in
      if c <> 0 then c else go (l + 1)
  in
  go 0

(* Number of bits needed to address [n] distinct indices. *)
let index_bits n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

(* Whether every (permuted lexicographic key, element index) pair fits in
   one tagged int: the key range is the product of the permuted extents,
   shifted left by the index width. Returns the key range, or -1 on
   overflow. *)
let packed_key_range dims perm ~idx_bits =
  let limit = max_int asr idx_bits in
  let rec go l range =
    if l = Array.length perm then range
    else
      let d = dims.(perm.(l)) in
      if d > 0 && range > limit / d then -1 else go (l + 1) (range * d)
  in
  go 0 1

(** [sorted_dedup ?perm t] returns a copy of [t] sorted lexicographically by
    the (optionally permuted) dimension order, with duplicate coordinates
    summed — the canonical form sparsification's [sorted = true] expects. *)
let sorted_dedup ?perm t =
  let perm =
    match perm with Some p -> p | None -> Array.init (rank t) Fun.id
  in
  let n = nnz t in
  let r = Array.length perm in
  let idx_bits = index_bits n in
  if packed_key_range t.dims perm ~idx_bits >= 0 then begin
    (* Fast path: encode each element as key * 2^idx_bits + index and sort
       plain ints. Sorting these is exactly the reference order below —
       key-major, original-index-minor — so the output (including the
       float summation order over duplicates) is bit-identical. *)
    let keys = Array.make n 0 in
    for k = 0 to n - 1 do
      let c = t.coords.(k) in
      let key = ref 0 in
      for l = 0 to r - 1 do
        key := (!key * t.dims.(perm.(l))) + c.(perm.(l))
      done;
      keys.(k) <- (!key lsl idx_bits) lor k
    done;
    Array.sort (fun (a : int) b -> compare a b) keys;
    let mask = (1 lsl idx_bits) - 1 in
    let out_c = Array.make n [||] and out_v = Array.make n 0. in
    let m = ref 0 and k = ref 0 in
    while !k < n do
      let key = keys.(!k) asr idx_bits in
      let first = keys.(!k) land mask in
      let v = ref 0. in
      while !k < n && keys.(!k) asr idx_bits = key do
        v := !v +. t.vals.(keys.(!k) land mask);
        incr k
      done;
      out_c.(!m) <- t.coords.(first);
      out_v.(!m) <- !v;
      incr m
    done;
    { dims = Array.copy t.dims;
      coords = Array.sub out_c 0 !m;
      vals = Array.sub out_v 0 !m }
  end
  else begin
    (* Reference path: comparator over the coordinate tuples, index as the
       tie-break so duplicate groups keep insertion order. *)
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let c = compare_perm perm t.coords.(a) t.coords.(b) in
        if c <> 0 then c else compare a b)
      order;
    let out_c = ref [] and out_v = ref [] in
    let m = ref 0 and k = ref 0 in
    while !k < n do
      let c = t.coords.(order.(!k)) in
      let v = ref 0. in
      while !k < n && compare_perm perm t.coords.(order.(!k)) c = 0 do
        v := !v +. t.vals.(order.(!k));
        incr k
      done;
      out_c := c :: !out_c;
      out_v := !v :: !out_v;
      incr m
    done;
    { dims = Array.copy t.dims;
      coords = Array.of_list (List.rev !out_c);
      vals = Array.of_list (List.rev !out_v) }
  end

(** [to_dense t] materialises a row-major dense array. *)
let to_dense t =
  let total = Array.fold_left ( * ) 1 t.dims in
  let d = Array.make total 0. in
  let strides = Array.make (rank t) 1 in
  for l = rank t - 2 downto 0 do
    strides.(l) <- strides.(l + 1) * t.dims.(l + 1)
  done;
  Array.iteri
    (fun k c ->
      let off = ref 0 in
      Array.iteri (fun l x -> off := !off + (x * strides.(l))) c;
      d.(!off) <- d.(!off) +. t.vals.(k))
    t.coords;
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
  Array.iter (fun c -> per_row.(c.(0)) <- per_row.(c.(0)) + 1) t.coords;
  let mn = Array.fold_left min max_int per_row
  and mx = Array.fold_left max 0 per_row in
  let n = nnz t in
  { s_rows = rows; s_cols = cols; s_nnz = n;
    s_row_min = (if rows = 0 then 0 else mn);
    s_row_max = mx;
    s_row_mean = (if rows = 0 then 0. else float_of_int n /. float_of_int rows);
    s_footprint_bytes =
      ((rows + 1) * index_bytes) + (n * index_bytes) + (n * 8) }
