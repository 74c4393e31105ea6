(* Hardware prefetchers of the Alder Lake E-core (paper Table 2).

   Each prefetcher observes the demand-access stream at its cache level and
   emits fill requests; the hierarchy pushes those through the shared
   MSHR/bandwidth paths, so inaccurate prefetchers genuinely cost the
   resources the paper's §5.1 insight is about.

   Models are deliberately simple but keep the properties the evaluation
   depends on: the next-line prefetchers are useless (and costly) on
   irregular streams; the IPP tracks only a couple of strided load PCs, so
   it cannot cover all of SpMV's streams (§3.2.1); the streamers cover
   sequential buffers; the AMP fires on repeated deltas, helping 2-D
   strides and polluting on random ones.

   These run on every demand access, so the observation path is
   allocation-free end to end: [observe] writes target line addresses
   into a caller-owned scratch buffer instead of returning a request list
   (the PR-5 allocation audit found the per-access event record plus the
   request cons cells cost ~9 heap words per simulated instruction — the
   single largest constant in the timing path). A request's source id and
   fill level were always the observing prefetcher's own [pf_id]/[pf_level],
   so nothing is lost by dropping the request record. *)

type level = L1 | L2 | L3

(* Prefetcher ids (indices into accuracy counters). *)
let id_l1_nlp = 0
let id_l1_ipp = 1
let id_l2_nlp = 2
let id_mlc = 3
let id_amp = 4
let id_llc = 5
let n_ids = 6

(* Stable dotted-counter-name components ("pf.<slug>.issued", ...). *)
let slug_of_id = function
  | 0 -> "l1_nlp" | 1 -> "l1_ipp" | 2 -> "l2_nlp"
  | 3 -> "mlc_streamer" | 4 -> "l2_amp" | 5 -> "llc_streamer"
  | _ -> "unknown"

(* Every unit bounds its burst by its degree; 8 leaves headroom over the
   largest default (streamer degree 4). *)
let max_requests = 8

(* The IPP's stream slots, five ints each in one array:
   [pc; last address; stride; confidence; conflicts since last use]. *)
let ipp_pc = 0
let ipp_last = 1
let ipp_stride = 2
let ipp_conf = 3
let ipp_used = 4
let ipp_width = 5

(* The streamer's table as parallel int arrays, so a search over the
   pages is one contiguous scan, kept in least-recently-used order by a
   doubly linked list over the entries ([newer]/[older], ends [mru] and
   [lru]), so the victim of a new page is read off the list instead of
   found by a scan for the oldest stamp. [memo] is the last entry found
   or filled: page walks revisit the same entry for long runs, so it is
   checked first. [bucket] counts the table's pages per [page land 63]:
   a zero count proves a page absent without the scan (most new pages).
   Pages in the table are unique (a page is only filled when absent), so
   every search order finds the same entry. A page is 4 KiB: a line
   number shifted right by [page_shift]. *)
type streamer = {
  pages : int array;
  lasts : int array;           (* high-water line per page *)
  confs : int array;
  newer : int array;           (* next entry towards [mru]; -1 at the end *)
  older : int array;           (* next entry towards [lru]; -1 at the end *)
  mutable mru : int;
  mutable lru : int;
  bucket : int array;          (* 64 counts *)
  mutable memo : int;
  degree : int;
  page_shift : int;
}

type kind =
  | Nlp
  | Ipp of { slots : int array; lookahead : int; line_shift : int }
  | Streamer of streamer
  | Amp of { mutable last_line : int; mutable last_delta : int;
             amp_degree : int }

type t = {
  pf_id : int;
  pf_level : level;            (* where it observes and fills *)
  kind : kind;
}

(* Empties a streamer's table. Fresh entries are used in index order:
   entry 0 is the first victim, then 1, and so on, exactly as a scan for
   the first oldest stamp over an all-zero stamp table would pick them. *)
let clear_streamer st =
  let n = Array.length st.pages in
  Array.fill st.pages 0 n (-1);
  Array.fill st.lasts 0 n (-1);
  Array.fill st.confs 0 n 0;
  for i = 0 to n - 1 do
    st.newer.(i) <- (if i = n - 1 then -1 else i + 1);
    st.older.(i) <- i - 1
  done;
  st.mru <- n - 1;
  st.lru <- 0;
  Array.fill st.bucket 0 64 0;
  st.bucket.(63) <- n;                          (* every page is -1 *)
  st.memo <- 0

(** [clear t] forgets everything [t] has observed: the state its
    constructor returns. *)
let clear t =
  match t.kind with
  | Nlp -> ()
  | Ipp { slots; _ } ->
    Array.fill slots 0 (Array.length slots) 0;
    for o = 0 to (Array.length slots / ipp_width) - 1 do
      slots.((o * ipp_width) + ipp_pc) <- -1
    done
  | Streamer st -> clear_streamer st
  | Amp a ->
    a.last_line <- -1;
    a.last_delta <- 0

(** L1 next-line: on a miss, fetch the following line. *)
let l1_nlp () = { pf_id = id_l1_nlp; pf_level = L1; kind = Nlp }

(** L2 next-line (default off on the platform). *)
let l2_nlp () = { pf_id = id_l2_nlp; pf_level = L2; kind = Nlp }

(** L1 instruction-pointer prefetcher: per-PC stride detection with a small
    stream capacity (the paper observes 2 concurrent streams, §3.2.1).
    [line_shift] is log2 of the line size: the unit sees byte addresses
    and requests lines. *)
let l1_ipp ?(streams = 2) ?(lookahead = 16) ~line_shift () =
  let t =
    { pf_id = id_l1_ipp; pf_level = L1;
      kind =
        Ipp { slots = Array.make (streams * ipp_width) 0; lookahead;
              line_shift } }
  in
  clear t;
  t

(** Streaming prefetcher: forward line streams within a 4 KiB page,
    prefetching [degree] lines past the page's high-water mark.
    Tracking the maximum accessed line (rather than demanding strictly
    consecutive accesses) keeps the unit trained when an L1 prefetcher
    reorders the miss stream. Instantiated at L2 (MLC streamer) and L3
    (LLC streamer). *)
let streamer ~pf_id ~level ?(entries = 16) ?(degree = 4) ~line_shift () =
  let st =
    { pages = Array.make entries 0; lasts = Array.make entries 0;
      confs = Array.make entries 0; newer = Array.make entries 0;
      older = Array.make entries 0; mru = 0; lru = 0;
      bucket = Array.make 64 0; memo = 0; degree = min degree max_requests;
      page_shift = max 0 (12 - line_shift) }
  in
  let t = { pf_id; pf_level = level; kind = Streamer st } in
  clear t;
  t

let mlc_streamer ~line_shift () =
  streamer ~pf_id:id_mlc ~level:L2 ~line_shift ()

let llc_streamer ~line_shift () =
  streamer ~pf_id:id_llc ~level:L3 ~degree:4 ~line_shift ()

(** L2 adaptive multipath: fires when the delta between consecutive lines
    repeats, covering 2-D strided walks; on irregular streams the
    occasional repeated delta produces pure pollution (the paper disables
    it for SpMV). *)
let l2_amp ?(degree = 2) () =
  let t =
    { pf_id = id_amp; pf_level = L2;
      kind =
        Amp { last_line = 0; last_delta = 0;
              amp_degree = min degree max_requests } }
  in
  clear t;
  t

(* The searches below are top-level loops taking all their state as
   arguments, so no observation allocates a closure. *)

(* One pass over the IPP slots from offset [o]: the offset of the first
   slot following [pc], or, when none does, [-1 - w] for the first slot
   [w] of lowest confidence (the victim). *)
let rec search_pc (slots : int array) pc o weakest =
  if o = Array.length slots then -1 - weakest
  else if Array.unsafe_get slots (o + ipp_pc) = pc then o
  else
    search_pc slots pc (o + ipp_width)
      (if Array.unsafe_get slots (o + ipp_conf)
          < Array.unsafe_get slots (weakest + ipp_conf)
       then o else weakest)

let rec find_int (a : int array) x i =
  if i = Array.length a then -1
  else if Array.unsafe_get a i = x then i
  else find_int a x (i + 1)

(* Makes entry [i] the most recently used. *)
let use st i =
  if st.mru <> i then begin
    let n = st.newer.(i) and o = st.older.(i) in
    st.older.(n) <- o;
    if o >= 0 then st.newer.(o) <- n else st.lru <- n;
    st.newer.(i) <- -1;
    st.older.(i) <- st.mru;
    st.newer.(st.mru) <- i;
    st.mru <- i
  end

(* Writes up to [k] lines after [from] that stay in [page] into [out],
   from index [w]; returns the new count. *)
let rec put ~page_shift ~page ~from k (out : int array) w =
  if k = 0 then w
  else begin
    let line = from + 1 in
    if line asr page_shift = page then begin
      out.(w) <- line;
      put ~page_shift ~page ~from:line (k - 1) out (w + 1)
    end
    else w
  end

let observe_ipp slots lookahead line_shift ~pc ~addr ~line ~out =
  let o = search_pc slots pc 0 0 in
  if o < 0 then begin
    (* Replacement with hysteresis: steal only a zero-confidence slot,
       otherwise decay the weakest stream. Plain LRU would thrash under
       the round-robin PC pattern of a loop body and the unit would never
       lock onto any stream. *)
    let v = -1 - o in
    if slots.(v + ipp_conf) = 0 then begin
      slots.(v + ipp_pc) <- pc;
      slots.(v + ipp_last) <- addr;
      slots.(v + ipp_stride) <- 0;
      (* A fresh entry starts with one confidence point so it can
         survive until its PC's next access. *)
      slots.(v + ipp_conf) <- 1;
      slots.(v + ipp_used) <- 0
    end
    else begin
      (* Slow decay: one confidence point per 8 conflicting accesses, so
         established streams survive a loop body's other loads. *)
      let u = slots.(v + ipp_used) + 1 in
      slots.(v + ipp_used) <- u;
      if u land 7 = 0 then slots.(v + ipp_conf) <- slots.(v + ipp_conf) - 1
    end;
    0
  end
  else begin
    slots.(o + ipp_used) <- 0;
    let stride = slots.(o + ipp_stride) in
    let d = addr - slots.(o + ipp_last) in
    let conf =
      if d = stride && d <> 0 then begin
        let c = slots.(o + ipp_conf) in
        if c < 4 then c + 1 else 4
      end
      else begin
        slots.(o + ipp_stride) <- d;
        1
      end
    in
    slots.(o + ipp_conf) <- conf;
    slots.(o + ipp_last) <- addr;
    if conf >= 2 then begin
      (* [conf >= 2] only after a repeated stride, so [d] is it. *)
      let target = addr + (d * lookahead) in
      if target >= 0 && target asr line_shift <> line then begin
        out.(0) <- target asr line_shift;
        1
      end
      else 0
    end
    else 0
  end

let observe_streamer st ~line ~out =
  let page = line asr st.page_shift in
  let idx =
    if st.pages.(st.memo) = page then st.memo
    else if st.bucket.(page land 63) = 0 then -1
    else begin
      let i = find_int st.pages page 0 in
      if i >= 0 then st.memo <- i;
      i
    end
  in
  if idx < 0 then begin
    let v = st.lru in
    use st v;
    st.memo <- v;
    let old = st.pages.(v) land 63 in
    st.bucket.(old) <- st.bucket.(old) - 1;
    st.bucket.(page land 63) <- st.bucket.(page land 63) + 1;
    st.pages.(v) <- page;
    st.lasts.(v) <- line;
    st.confs.(v) <- 0;
    0
  end
  else begin
    use st idx;
    let delta = line - st.lasts.(idx) in
    if delta > 0 && delta <= 4 then begin
      let c = st.confs.(idx) in
      st.confs.(idx) <- (if c < 4 then c + 1 else 4);
      st.lasts.(idx) <- line
    end
    else if delta > 4 || delta < -4 then begin
      st.confs.(idx) <- 0;
      st.lasts.(idx) <- line
    end;
    (* Small backward jitter (delta in [-4, 0]) leaves the high-water
       mark and confidence untouched. *)
    if st.confs.(idx) >= 1 && delta > 0 then
      put ~page_shift:st.page_shift ~page ~from:st.lasts.(idx) st.degree out
        0
    else 0
  end

(** [observe t ~pc ~addr ~line ~hit ~out] feeds one access to [t]; see
    the interface. *)
let[@inline] observe t ~pc ~addr ~line ~hit ~out =
  match t.kind with
  | Nlp ->
    if hit then 0
    else begin
      out.(0) <- line + 1;
      1
    end
  | Ipp { slots; lookahead; line_shift } ->
    observe_ipp slots lookahead line_shift ~pc ~addr ~line ~out
  | Streamer st -> observe_streamer st ~line ~out
  | Amp a ->
    let d = line - a.last_line in
    let fire = a.last_line >= 0 && d = a.last_delta && d <> 0 in
    a.last_delta <- d;
    a.last_line <- line;
    if fire then begin
      (* Negative targets (a descending delta running past address 0)
         are skipped. *)
      let w = ref 0 in
      for k = 1 to a.amp_degree do
        let target = line + (k * d) in
        if target >= 0 then begin
          out.(!w) <- target;
          incr w
        end
      done;
      !w
    end
    else 0
