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
   allocation-free end to end: [pf_observe] writes target line addresses
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

let name_of_id = function
  | 0 -> "L1 NLP" | 1 -> "L1 IPP" | 2 -> "L2 NLP"
  | 3 -> "MLC Streamer" | 4 -> "L2 AMP" | 5 -> "LLC Streamer"
  | _ -> "?"

(* Stable dotted-counter-name components ("pf.<slug>.issued", ...). *)
let slug_of_id = function
  | 0 -> "l1_nlp" | 1 -> "l1_ipp" | 2 -> "l2_nlp"
  | 3 -> "mlc_streamer" | 4 -> "l2_amp" | 5 -> "llc_streamer"
  | _ -> "unknown"

(* Every unit bounds its burst by its degree; 8 leaves headroom over the
   largest default (streamer degree 4). *)
let max_requests = 8

type t = {
  pf_id : int;
  pf_level : level;            (* where it observes and fills *)
  pf_observe :
    pc:int -> addr:int -> line:int -> hit:bool -> out:int array -> int;
}

(** L1 next-line: on a miss, fetch the following line. *)
let l1_nlp () =
  { pf_id = id_l1_nlp; pf_level = L1;
    pf_observe =
      (fun ~pc:_ ~addr:_ ~line ~hit ~out ->
        if hit then 0
        else begin
          out.(0) <- line + 1;
          1
        end) }

(** L2 next-line (default off on the platform). *)
let l2_nlp () =
  { pf_id = id_l2_nlp; pf_level = L2;
    pf_observe =
      (fun ~pc:_ ~addr:_ ~line ~hit ~out ->
        if hit then 0
        else begin
          out.(0) <- line + 1;
          1
        end) }

type ipp_stream = {
  mutable s_pc : int;
  mutable s_last : int;
  mutable s_stride : int;
  mutable s_conf : int;
  mutable s_used : int;
}

(* Top-level search loop: a nested [let rec] closing over the searched-for
   pc would be rebuilt — a fresh heap closure — on every observation (the
   PR-5 allocation audit measured it at ~6 words per L1 access). *)
let rec find_pc (table : ipp_stream array) n pc i =
  if i = n then -1
  else if table.(i).s_pc = pc then i
  else find_pc table n pc (i + 1)

(** L1 instruction-pointer prefetcher: per-PC stride detection with a small
    stream capacity (the paper observes 2 concurrent streams, §3.2.1). *)
let l1_ipp ?(streams = 2) ?(lookahead = 16) () =
  let table =
    Array.init streams (fun _ ->
        { s_pc = -1; s_last = 0; s_stride = 0; s_conf = 0; s_used = 0 })
  in
  (* Hot path: runs on every L1 access, so the searches below are plain
     index loops — no closures, options or refs. *)
  let n = Array.length table in
  (* Defined here (not inside observe) so the closure is built once. *)
  let rec pick_victim i best =
    if i = n then best
    else
      pick_victim (i + 1)
        (if table.(i).s_conf < table.(best).s_conf then i else best)
  in
  { pf_id = id_l1_ipp; pf_level = L1;
    pf_observe =
      (fun ~pc ~addr ~line ~hit:_ ~out ->
        let idx = find_pc table n pc 0 in
        if idx < 0 then begin
          (* Replacement with hysteresis: steal only a zero-confidence
             slot, otherwise decay the weakest stream. Plain LRU would
             thrash under the round-robin PC pattern of a loop body and
             the unit would never lock onto any stream. *)
          let v = table.(pick_victim 1 0) in
          if v.s_conf = 0 then begin
            v.s_pc <- pc;
            v.s_last <- addr;
            v.s_stride <- 0;
            (* A fresh entry starts with one confidence point so it can
               survive until its PC's next access. *)
            v.s_conf <- 1;
            v.s_used <- 0
          end
          else begin
            (* Slow decay: one confidence point per 8 conflicting
               accesses, so established streams survive a loop body's
               other loads. *)
            v.s_used <- v.s_used + 1;
            if v.s_used mod 8 = 0 then v.s_conf <- v.s_conf - 1
          end;
          0
        end
        else begin
          let s = table.(idx) in
          s.s_used <- 0;
          let d = addr - s.s_last in
          if d = s.s_stride && d <> 0 then
            s.s_conf <- (if s.s_conf < 4 then s.s_conf + 1 else 4)
          else begin
            s.s_stride <- d;
            s.s_conf <- 1
          end;
          s.s_last <- addr;
          if s.s_conf >= 2 then begin
            let target = addr + (s.s_stride * lookahead) in
            if target >= 0 && target asr 6 <> line then begin
              out.(0) <- target asr 6;
              1
            end
            else 0
          end
          else 0
        end) }

type stream_entry = {
  mutable t_page : int;
  mutable t_last : int;
  mutable t_conf : int;
  mutable t_used : int;
}

(* Top-level for the same reason as [find_pc]: no per-observation closure. *)
let rec find_page (table : stream_entry array) n page i =
  if i = n then -1
  else if table.(i).t_page = page then i
  else find_page table n page (i + 1)

(** Streaming prefetcher: forward line streams within a 4 KiB page,
    prefetching [degree] lines past the page's high-water mark.
    Tracking the maximum accessed line (rather than demanding strictly
    consecutive accesses) keeps the unit trained when an L1 prefetcher
    reorders the miss stream. Instantiated at L2 (MLC streamer) and L3
    (LLC streamer). *)
let streamer ~pf_id ~level ?(entries = 16) ?(degree = 4) () =
  let degree = min degree max_requests in
  let table =
    Array.init entries (fun _ ->
        { t_page = -1; t_last = -1; t_conf = 0; t_used = 0 })
  in
  let stamp = ref 0 in
  (* Hot path: runs on every access at its level, so the table searches
     are plain index loops and the burst is written straight into [out]
     with only in-page lines (same lines, same order as a list build). *)
  let n = Array.length table in
  (* Last-hit memo: page walks revisit the same entry for long runs, so
     checking it first skips the linear search on the common path (pure
     host-speed memo — same entry is found either way). *)
  let last_idx = ref 0 in
  let rec pick_victim i best =
    if i = n then best
    else
      pick_victim (i + 1)
        (if table.(i).t_used < table.(best).t_used then i else best)
  in
  let rec put ~page ~from k (out : int array) w =
    if k = 0 then w
    else begin
      let line = from + 1 in
      if line asr 6 = page then begin
        out.(w) <- line;
        put ~page ~from:line (k - 1) out (w + 1)
      end
      else w
    end
  in
  { pf_id; pf_level = level;
    pf_observe =
      (fun ~pc:_ ~addr:_ ~line ~hit:_ ~out ->
        incr stamp;
        let page = line asr 6 in
        let idx =
          if table.(!last_idx).t_page = page then !last_idx
          else begin
            let i = find_page table n page 0 in
            if i >= 0 then last_idx := i;
            i
          end
        in
        if idx < 0 then begin
          let vi = pick_victim 1 0 in
          let v = table.(vi) in
          last_idx := vi;
          v.t_page <- page;
          v.t_last <- line;
          v.t_conf <- 0;
          v.t_used <- !stamp;
          0
        end
        else begin
          let s = table.(idx) in
          s.t_used <- !stamp;
          let delta = line - s.t_last in
          if delta > 0 && delta <= 4 then begin
            s.t_conf <- (if s.t_conf < 4 then s.t_conf + 1 else 4);
            s.t_last <- line
          end
          else if delta > 4 || delta < -4 then begin
            s.t_conf <- 0;
            s.t_last <- line
          end;
          (* Small backward jitter (delta in [-4, 0]) leaves the
             high-water mark and confidence untouched. *)
          if s.t_conf >= 1 && delta > 0 then
            put ~page ~from:s.t_last degree out 0
          else 0
        end) }

let mlc_streamer () = streamer ~pf_id:id_mlc ~level:L2 ()
let llc_streamer () = streamer ~pf_id:id_llc ~level:L3 ~degree:4 ()

(** L2 adaptive multipath: fires when the delta between consecutive lines
    repeats, covering 2-D strided walks; on irregular streams the
    occasional repeated delta produces pure pollution (the paper disables
    it for SpMV). *)
let l2_amp ?(degree = 2) () =
  let degree = min degree max_requests in
  let last_line = ref (-1) and last_delta = ref 0 in
  { pf_id = id_amp; pf_level = L2;
    pf_observe =
      (fun ~pc:_ ~addr:_ ~line ~hit:_ ~out ->
        let d = line - !last_line in
        let fire = !last_line >= 0 && d = !last_delta && d <> 0 in
        last_delta := d;
        last_line := line;
        if fire then begin
          (* Negative targets (a descending delta running past address 0)
             are skipped, matching the old list build's filter. *)
          let w = ref 0 in
          for k = 1 to degree do
            let target = line + (k * d) in
            if target >= 0 then begin
              out.(!w) <- target;
              incr w
            end
          done;
          !w
        end
        else 0) }
