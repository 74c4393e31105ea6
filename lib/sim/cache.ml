(* Set-associative cache tag store with LRU replacement.

   Only tags are modelled (data correctness is the interpreter's job).
   Each line remembers its provenance — demand fill or the id of the
   prefetcher that brought it in — so prefetch-accuracy counters can tell
   useful prefetches from pollution.

   A set is [ways] consecutive ints kept in recency order, most recently
   used first; each int packs a line with its provenance,
   [line lsl 3 lor (prov + 1)]. Keeping the order itself rather than a
   last-use stamp per way means:
   - a hit on a recently used line is found after a compare or two (the
     common case: a stream touches its line several times in a row), and
     only the entries in front of it move back one place;
   - the victim is always the last entry, with no second scan for the
     oldest stamp;
   - a set is one int per way, one or two host cache lines even for a
     16-way set (a large simulated L3's tags are hundreds of KiB, so on a
     gather-heavy stream every set probe is a cold host-memory touch).
   A ring per set (a moving head instead of shifts) was measured slower:
   the wrap arithmetic on every scanned way costs more than the shift it
   saves on a miss.
   An empty way holds [empty], which matches no line and decodes to the
   demand provenance; empty ways sit at the back, so they are used before
   any line is evicted. No line is ever invalidated.

   [counts] is a counting filter over the lines held: entry
   [line land cmask] counts them per bucket, with four buckets per way,
   so a zero proves a line absent without scanning its set (most
   prefetch and miss-path probes look for lines that are not there).
   [cmask] keeps the set-index bits, so a bucket's lines all share one
   set and a count never exceeds [ways]. *)

type t = {
  sets : int;
  ways : int;
  tags : int array;        (* sets*ways packed entries, per set MRU first *)
  counts : Bytes.t;        (* lines held per [line land cmask] *)
  cmask : int;
}

let demand_prov = -1

(* Returned by [lookup] on a miss; distinct from every provenance value
   (demand_prov = -1, prefetcher ids >= 0). *)
let no_hit = -2

(* Lines are addresses shifted right by at least 4 bits (lines of 16
   bytes or more), so [line lsl 3] cannot overflow and [empty asr 3],
   -2^59, is below every line. *)
let empty = min_int

let[@inline] entry line prov = (line lsl 3) lor (prov + 1)
let[@inline] prov_of e = (e land 7) - 1

(** [line_shift ~line_bytes] is the integer log2 of the line size — the
    shift that turns a byte address into a line address.
    @raise Invalid_argument unless [line_bytes] is a power of two. *)
let line_shift ~line_bytes =
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Cache.line_shift: line_bytes not a power of two";
  let rec go b n = if n <= 1 then b else go (b + 1) (n lsr 1) in
  go 0 line_bytes

let create ~size_bytes ~ways ~line_bytes =
  if line_shift ~line_bytes < 4 then invalid_arg "Cache.create: line_bytes";
  let lines = size_bytes / line_bytes in
  if ways <= 0 || lines mod ways <> 0 then invalid_arg "Cache.create: geometry";
  let sets = lines / ways in
  if sets land (sets - 1) <> 0 then invalid_arg "Cache.create: sets not 2^k";
  if ways > 255 then invalid_arg "Cache.create: more than 255 ways";
  let buckets = ref sets in
  while !buckets < 4 * lines do buckets := 2 * !buckets done;
  { sets; ways; tags = Array.make (sets * ways) empty;
    counts = Bytes.make !buckets '\000'; cmask = !buckets - 1 }

(** [clear t] empties [t]: the state {!create} returns. *)
let clear t =
  Array.fill t.tags 0 (Array.length t.tags) empty;
  Bytes.fill t.counts 0 (Bytes.length t.counts) '\000'

let[@inline] set_base t line = (line land (t.sets - 1)) * t.ways

(* The loops below are top-level functions taking all their state as
   arguments: a local [let rec] capturing variables would allocate a
   closure on every call, and these run on every simulated access. The
   unchecked accesses are in range by construction: indices stay inside
   one set, [base, base + ways), of the [sets * ways] array. *)

(* Index of [line]'s entry in [i, stop), or -1. Two ways per step: the
   loop's own overhead is a good part of a scan's cost. *)
let rec scan (tags : int array) line i stop =
  if i + 1 < stop then
    if Array.unsafe_get tags i asr 3 = line then i
    else if Array.unsafe_get tags (i + 1) asr 3 = line then i + 1
    else scan tags line (i + 2) stop
  else if i < stop && Array.unsafe_get tags i asr 3 = line then i
  else -1

(* Moves [tags.(lo .. hi-1)] one place back, onto [lo+1 .. hi], two per
   step. *)
let rec shift_back (tags : int array) lo hi =
  if hi > lo + 1 then begin
    Array.unsafe_set tags hi (Array.unsafe_get tags (hi - 1));
    Array.unsafe_set tags (hi - 1) (Array.unsafe_get tags (hi - 2));
    shift_back tags lo (hi - 2)
  end
  else if hi > lo then Array.unsafe_set tags hi (Array.unsafe_get tags lo)

(* Index of [line]'s entry in the set at [base], or -1. The most recent
   entry and the filter are checked here, where the call inlines, before
   the loop. *)
let[@inline] find_at t base line =
  let tags = t.tags in
  if Array.unsafe_get tags base asr 3 = line then base
  else if Bytes.unsafe_get t.counts (line land t.cmask) = '\000' then -1
  else scan tags line (base + 1) (base + t.ways)

(** [find t line] is the index of [line]'s entry, or -1 when absent.
    Valid until the next change to [line]'s set. *)
let find t line = find_at t (set_base t line) line

(* Makes entry [i] of the set at [base] the most recent, as [e]. *)
let[@inline] to_front tags base i e =
  if i > base then shift_back tags base i;
  Array.unsafe_set tags base e

(** [lookup t line] checks for [line], updating LRU. Returns the
    provenance of the line on a hit, [no_hit] on a miss. This runs on
    every simulated access, hence the int (not option) result. *)
let lookup t line : int =
  let tags = t.tags in
  let base = set_base t line in
  let i = find_at t base line in
  if i >= 0 then begin
    let e = Array.unsafe_get tags i in
    (* After the first demand use the line counts as demand-resident. *)
    to_front tags base i (e land lnot 7);
    prov_of e
  end
  else no_hit

(** [probe t line] tests presence without touching LRU or counters. *)
let probe t line = find t line >= 0

(** [touch t line i] makes [line]'s entry [i] (from {!find}, its set
    unchanged since) the most recent of its set, keeping its
    provenance. *)
let touch t line i =
  to_front t.tags (set_base t line) i (Array.unsafe_get t.tags i)

(** [insert_absent t line ~prov] installs [line], which the caller knows
    to be absent, evicting the least recent way. Returns the victim's
    provenance: a prefetcher id when it was a prefetched line never
    demanded (its provenance survived because [lookup] clears it on first
    use), [demand_prov] otherwise (a demand victim or an empty way). *)
let insert_absent t line ~prov =
  let tags = t.tags in
  let base = set_base t line in
  let last = base + t.ways - 1 in
  let victim = Array.unsafe_get tags last in
  to_front tags base last (entry line prov);
  let counts = t.counts in
  if victim <> empty then begin
    let b = (victim asr 3) land t.cmask in
    Bytes.unsafe_set counts b
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get counts b) - 1))
  end;
  let b = line land t.cmask in
  Bytes.unsafe_set counts b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get counts b) + 1));
  prov_of victim

(** [insert_evict t line ~prov] is [insert_absent] when [line] is absent;
    when present it only becomes the most recent (provenance kept) and
    the result is [demand_prov]. *)
let insert_evict t line ~prov =
  let i = find t line in
  if i >= 0 then begin
    touch t line i;
    demand_prov
  end
  else insert_absent t line ~prov

(** [insert t line ~prov] installs [line], evicting the LRU way. No-op if
    already present (refreshes LRU). *)
let insert t line ~prov = ignore (insert_evict t line ~prov)
