(* Host spans on the monotonic clock, kept in memory.

   A traced op opens one root span; every call into a layer opens a child
   span under whichever span is open, so all spans of one op share the
   op's id and name their parent. Counts recorded at the same call sites
   (instructions simulated, non-zeros packed, ...) ride in the same
   value, so per-layer ratios are measured where the work happens.
   Nothing is written until [to_chrome], after the timed phase. *)

module Chrome = Asap_obs.Chrome
module Jsonu = Asap_obs.Jsonu

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  s_op : int;          (* id of the op this span belongs to *)
  s_name : string;     (* layer name, or "op" for a root *)
  s_parent : int;      (* index of the parent span; -1 for a root *)
  s_start : int;       (* ns, monotonic *)
  mutable s_dur : int; (* ns *)
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable open_ : int;                   (* innermost open span; -1 *)
  mutable op : int;
  counts : (string, int) Hashtbl.t;
}

let create () =
  { spans = [||]; len = 0; open_ = -1; op = 0; counts = Hashtbl.create 16 }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 256 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1

(* [span t name f] runs [f] inside a span named [name]. *)
let span t name f =
  let idx = t.len in
  let parent = t.open_ in
  push t
    { s_op = t.op; s_name = name; s_parent = parent; s_start = now_ns ();
      s_dur = 0 };
  t.open_ <- idx;
  let close () =
    let s = t.spans.(idx) in
    s.s_dur <- now_ns () - s.s_start;
    t.open_ <- parent
  in
  match f () with
  | v -> close (); v
  | exception e -> close (); raise e

(* [op t f] runs [f] as a new op: a root span with a fresh id. Returns
   the result and the root's duration in ns. *)
let op t f =
  t.op <- t.op + 1;
  let idx = t.len in
  let v = span t "op" f in
  (v, t.spans.(idx).s_dur)

let count t name n =
  Hashtbl.replace t.counts name
    (n + Option.value (Hashtbl.find_opt t.counts name) ~default:0)

let counted t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0

(* Per-layer totals: for each span name, its calls, summed duration,
   summed self time (duration minus the part its children cover) and
   every duration, in call order. Roots are excluded. *)
type layer = {
  l_calls : int;
  l_total_ns : int;
  l_self_ns : int;
  l_durs : int list;
}

let layers t : (string * layer) list =
  let child_ns = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.s_parent >= 0 then
      child_ns.(s.s_parent) <- child_ns.(s.s_parent) + s.s_dur
  done;
  let tbl = Hashtbl.create 16 in
  for i = t.len - 1 downto 0 do
    let s = t.spans.(i) in
    if s.s_parent >= 0 then begin
      let l =
        Option.value (Hashtbl.find_opt tbl s.s_name)
          ~default:{ l_calls = 0; l_total_ns = 0; l_self_ns = 0; l_durs = [] }
      in
      Hashtbl.replace tbl s.s_name
        { l_calls = l.l_calls + 1; l_total_ns = l.l_total_ns + s.s_dur;
          l_self_ns = l.l_self_ns + s.s_dur - child_ns.(i);
          l_durs = s.s_dur :: l.l_durs }
    end
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Summed duration of the spans directly under a root, and of the roots:
   their ratio is how much of the traced wall the layer spans account
   for. *)
let coverage t =
  let top = ref 0 and roots = ref 0 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.s_parent < 0 then roots := !roots + s.s_dur
    else if t.spans.(s.s_parent).s_parent < 0 then top := !top + s.s_dur
  done;
  if !roots = 0 then 0. else float_of_int !top /. float_of_int !roots

(* Microsecond timestamps relative to the first span, on one host
   track; nesting follows from containment. *)
let to_chrome t : Chrome.t =
  let c = Chrome.create () in
  let t0 = if t.len = 0 then 0 else t.spans.(0).s_start in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let parent =
      if s.s_parent < 0 then Jsonu.Null
      else Jsonu.Str t.spans.(s.s_parent).s_name
    in
    Chrome.add_complete c ~track:"host" ~name:s.s_name ~cat:"layer"
      ~ts:((s.s_start - t0) / 1000) ~dur:(s.s_dur / 1000)
      [ ("op", Jsonu.Int s.s_op); ("parent", parent) ]
  done;
  c
