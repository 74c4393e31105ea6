(* One-pass structural features of a sparse matrix.

   Everything the cost model needs to predict a prefetch configuration
   without simulating candidate sweeps: the row-length (= inner segment
   length) distribution, how far the column stream strays from the
   diagonal (the locality of the gather into the dense operand), and an
   analytic estimate of the L2 MPKI the tuning sweep would measure on
   its profiling slice. Extraction is two passes over the COO coordinate
   arrays plus one over a rows-sized counter array — O(nnz + rows + cols)
   with two small allocations (row counters and a gather-line bitmap) —
   against O(candidates x sliced simulation) for the sweep it replaces.

   The features deliberately mirror the quantities the paper's evaluation
   plots against (Fig. 6/8: speedup vs L2 MPKI; §3.2.2: segment lengths
   vs prefetch distance), so the model over them stays interpretable. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Tuning = Asap_core.Tuning

(* Segment-length histogram buckets: log2 row lengths 2^0 .. 2^(n-1),
   last bucket open-ended. *)
let hist_buckets = 12

type t = {
  f_rows : int;
  f_cols : int;
  f_nnz : int;
  f_row_mean : float;          (* nnz/row mean (segment length) *)
  f_row_cov : float;           (* coefficient of variation of row lengths *)
  f_row_max : int;
  f_empty_frac : float;        (* fraction of rows with no entries *)
  f_hist : int array;          (* log2 segment-length histogram (rows) *)
  f_tail_mass : float;         (* nnz fraction in rows > 4x mean length *)
  f_band_frac : float;         (* mean |col - diag| / cols: 0 = diagonal *)
  f_gather_bytes : int;        (* dense-operand footprint: cols * 8 *)
  f_stream_bytes : int;        (* pos+crd+vals bytes streamed once *)
  f_slice_nnz : int;           (* gather accesses in the profiling slice *)
  f_slice_lines : int;         (* distinct gather lines the slice touches *)
  f_l1_ratio : float;          (* touched gather footprint / L1 capacity *)
  f_l2_ratio : float;          (* touched gather footprint / L2 capacity *)
  f_l3_ratio : float;          (* touched gather footprint / L3 capacity *)
  f_est_mpki : float;          (* analytic L2-MPKI estimate for the gather *)
  f_block_elems : int;         (* values per stored leaf: bh*bw blocked, 1 *)
  f_block_fill : float;        (* nnz / stored values; 1.0 unblocked *)
  f_extract_cycles : int;      (* virtual cost charged for extraction *)
}

(* Instruction cost of one CSR-style SpMV element on the simulated
   machine: load crd, load vals, load c[j], fma, loop overhead. Used
   only to scale the analytic miss estimate to a per-kilo-instruction
   rate, mirroring Exec.l2_mpki's denominator. *)
let instrs_per_nnz = 9.
let instrs_per_row = 6.

(** [est_mpki] — analytic L2 misses per kilo-instruction of the gather
    stream over the tuning sweep's profiling slice (the leading
    [profile_fraction] of rows — the quantity {!Tuning.tune}'s rollback
    test actually thresholds). Two components:

    - compulsory: every distinct dense-operand line the slice touches
      ([slice_lines], counted exactly) misses once — the slice runs on
      a cold hierarchy, so first-touch dominates for scattered gathers;
    - capacity: when the touched footprint overflows L2, the accesses
      beyond first touch miss with the overflow probability
      [1 - l2 / touched_bytes].

    The streamed pos/crd/vals buffers are next-line-prefetchable and
    largely hidden by the baseline hardware prefetchers; they are
    excluded, as Fig. 6's x-axis (demand misses of the gather)
    effectively is. The estimate is deliberately prefetcher-blind for
    the gather itself, so it over-reads sequential column streams
    (banded/stencil matrices); the model's speedup term absorbs that. *)
let est_mpki ~slice_nnz ~slice_rows ~slice_lines ~l2_bytes =
  if slice_nnz = 0 then 0.
  else begin
    let n = float_of_int slice_nnz in
    let touched = float_of_int (slice_lines * 64) in
    let p_capacity =
      if touched <= float_of_int l2_bytes then 0.
      else 1. -. (float_of_int l2_bytes /. touched)
    in
    let misses =
      float_of_int slice_lines
      +. (Float.max 0. (n -. float_of_int slice_lines) *. p_capacity)
    in
    let instrs =
      (n *. instrs_per_nnz) +. (float_of_int slice_rows *. instrs_per_row)
    in
    misses /. instrs *. 1000.
  end

(** [extract ~machine enc coo] computes the feature vector. Rank-2 only
    (the same restriction as the sweep it replaces); the slice estimate
    covers the sweep's {!Tuning.profile_fraction} of the rows.
    @raise Invalid_argument on other ranks. *)
let extract ~(machine : Machine.t) (enc : Encoding.t) (coo : Coo.t) : t =
  if Coo.rank coo <> 2 then
    invalid_arg "Features.extract: rank-2 tensors only";
  let rows = coo.Coo.dims.(0) and cols = coo.Coo.dims.(1) in
  let nnz = Coo.nnz coo in
  let prof_rows =
    max 1 (int_of_float (float_of_int rows *. Tuning.profile_fraction))
  in
  let counts = Array.make (max 1 rows) 0 in
  (* One gather line covers 8 f64 elements; the bitmap marks the lines
     of the dense operand the profiling slice touches. *)
  let n_lines = (cols + 7) / 8 in
  let touched = Bytes.make (max 1 ((n_lines + 7) / 8)) '\000' in
  let slice_nnz = ref 0 and slice_lines = ref 0 in
  (* Pass 1 over the coordinates: row lengths, diagonal deviation, and
     the slice's exact gather-line footprint. COO need not be sorted or
     deduplicated; duplicates are counted as stored entries, matching
     what a packed non-unique level streams. *)
  let dev_sum = ref 0. in
  let scale = float_of_int cols /. float_of_int (max 1 rows) in
  let ci = coo.Coo.crd.(0) and cj = coo.Coo.crd.(1) in
  for k = 0 to nnz - 1 do
    let i = ci.(k) and j = cj.(k) in
    counts.(i) <- counts.(i) + 1;
    dev_sum :=
      !dev_sum +. Float.abs (float_of_int j -. (float_of_int i *. scale));
    if i < prof_rows then begin
      incr slice_nnz;
      let line = j / 8 in
      let byte = Char.code (Bytes.get touched (line lsr 3)) in
      let bit = 1 lsl (line land 7) in
      if byte land bit = 0 then begin
        Bytes.set touched (line lsr 3) (Char.chr (byte lor bit));
        incr slice_lines
      end
    end
  done;
  let band_frac =
    if nnz = 0 || cols = 0 then 0.
    else !dev_sum /. float_of_int nnz /. float_of_int cols
  in
  (* Pass 2 over the row counts: moments, histogram, tail mass. *)
  let mean = float_of_int nnz /. float_of_int (max 1 rows) in
  let var = ref 0. and row_max = ref 0 and empty = ref 0 in
  let hist = Array.make hist_buckets 0 in
  let tail_cut = 4. *. mean in
  let tail = ref 0 in
  for i = 0 to rows - 1 do
    let l = counts.(i) in
    if l = 0 then incr empty
    else begin
      let b =
        min (hist_buckets - 1)
          (int_of_float (Float.log2 (float_of_int l)))
      in
      hist.(b) <- hist.(b) + 1
    end;
    if l > !row_max then row_max := l;
    if float_of_int l > tail_cut then tail := !tail + l;
    let d = float_of_int l -. mean in
    var := !var +. (d *. d)
  done;
  let cov =
    if mean <= 0. then 0.
    else sqrt (!var /. float_of_int (max 1 rows)) /. mean
  in
  let gather_bytes = cols * 8 in
  let index_bytes =
    match enc.Encoding.width with Encoding.W32 -> 4 | Encoding.W64 -> 8
  in
  (* Blocked layouts stream whole blocks: the value stream carries the
     explicit zeros of partially filled blocks, and pos/crd index the
     block coordinate space. The fill ratio (nnz / stored values) is the
     price of the layout and a direct input to the streaming estimate. *)
  let block_elems = Encoding.block_elems enc in
  let n_blocks =
    match enc.Encoding.block with
    | None -> 0
    | Some (bh, bw) ->
      let seen = Hashtbl.create (max 16 nnz) in
      for k = 0 to nnz - 1 do
        let key = ((ci.(k) / bh) * ((cols / bw) + 1)) + (cj.(k) / bw) in
        if not (Hashtbl.mem seen key) then Hashtbl.add seen key ()
      done;
      Hashtbl.length seen
  in
  let stream_bytes =
    match enc.Encoding.block with
    | None -> (nnz * (index_bytes + 8)) + ((rows + 1) * index_bytes)
    | Some (bh, _) ->
      let nbr = (rows + bh - 1) / bh in
      (n_blocks * block_elems * 8)
      + (n_blocks * index_bytes)
      + ((nbr + 1) * index_bytes)
  in
  let stored_vals =
    match enc.Encoding.block with
    | None -> nnz
    | Some _ -> n_blocks * block_elems
  in
  let block_fill =
    if stored_vals = 0 then 1.
    else float_of_int nnz /. float_of_int stored_vals
  in
  let l1 = machine.Machine.l1_kb * 1024
  and l2 = machine.Machine.l2_kb * 1024
  and l3 = machine.Machine.l3_kb * 1024 in
  let touched_bytes = !slice_lines * 64 in
  let ratio c = float_of_int touched_bytes /. float_of_int c in
  { f_rows = rows; f_cols = cols; f_nnz = nnz;
    f_row_mean = mean; f_row_cov = cov; f_row_max = !row_max;
    f_empty_frac = float_of_int !empty /. float_of_int (max 1 rows);
    f_hist = hist;
    f_tail_mass =
      (if nnz = 0 then 0. else float_of_int !tail /. float_of_int nnz);
    f_band_frac = band_frac;
    f_gather_bytes = gather_bytes; f_stream_bytes = stream_bytes;
    f_slice_nnz = !slice_nnz; f_slice_lines = !slice_lines;
    f_l1_ratio = ratio l1; f_l2_ratio = ratio l2; f_l3_ratio = ratio l3;
    f_est_mpki =
      est_mpki ~slice_nnz:!slice_nnz ~slice_rows:prof_rows
        ~slice_lines:!slice_lines ~l2_bytes:l2;
    f_block_elems = block_elems;
    f_block_fill = block_fill;
    (* Extraction is two O(nnz) passes of simple integer work: charge
       ~2 simulated cycles per element plus one per row — microseconds
       of virtual time, where the sweep charges six sliced simulations.
       Blocked layouts add the block-census hash pass. *)
    f_extract_cycles = (2 * nnz) + rows + (if n_blocks > 0 then nnz else 0) }

(** [to_assoc f] exports the scalar features (histogram elided) for
    logs, JSON records and the fit tool. *)
let to_assoc (f : t) : (string * float) list =
  [ ("rows", float_of_int f.f_rows);
    ("cols", float_of_int f.f_cols);
    ("nnz", float_of_int f.f_nnz);
    ("row_mean", f.f_row_mean);
    ("row_cov", f.f_row_cov);
    ("row_max", float_of_int f.f_row_max);
    ("empty_frac", f.f_empty_frac);
    ("tail_mass", f.f_tail_mass);
    ("band_frac", f.f_band_frac);
    ("gather_bytes", float_of_int f.f_gather_bytes);
    ("stream_bytes", float_of_int f.f_stream_bytes);
    ("slice_nnz", float_of_int f.f_slice_nnz);
    ("slice_lines", float_of_int f.f_slice_lines);
    ("l1_ratio", f.f_l1_ratio);
    ("l2_ratio", f.f_l2_ratio);
    ("l3_ratio", f.f_l3_ratio);
    ("est_mpki", f.f_est_mpki);
    ("block_elems", float_of_int f.f_block_elems);
    ("block_fill", f.f_block_fill) ]

let pp ppf (f : t) =
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%-14s %12.4f@." k v)
    (to_assoc f);
  Format.fprintf ppf "%-14s" "seg_hist";
  Array.iter (fun c -> Format.fprintf ppf " %d" c) f.f_hist;
  Format.fprintf ppf "@."
