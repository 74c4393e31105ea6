(* Set-associative cache tag store with LRU replacement.

   Only tags are modelled (data correctness is the interpreter's job).
   Each line remembers its provenance — demand fill or the id of the
   prefetcher that brought it in — so prefetch-accuracy counters can tell
   useful prefetches from pollution.

   The per-way metadata ([tag; last_use; prov]) is interleaved in one
   array, one contiguous block per set, rather than kept in three
   parallel arrays: the simulator's own tag state for a large L3 runs to
   hundreds of KiB, so on a random (gather-heavy) access pattern each
   simulated set probe is a cold host-memory touch — with parallel
   arrays it was three. The PR-5 allocation/locality audit measured the
   split layout at ~30% of the whole no-prefetcher miss path. *)

type t = {
  name : string;
  sets : int;
  ways : int;
  line_bits : int;
  block : int;             (* ways * 3: ints of metadata per set *)
  meta : int array;        (* sets*ways*3; per way [tag; last_use; prov],
                              tag -1 = invalid *)
  mutable stamp : int;
  mutable hits : int;
  mutable misses : int;
  mutable pf_hits : int;   (* demand hits on prefetched lines *)
}

let demand_prov = -1

(* Returned by [lookup] on a miss; distinct from every provenance value
   (demand_prov = -1, prefetcher ids >= 0). *)
let no_hit = -2

(** [line_shift ~line_bytes] is the integer log2 of the line size — the
    shift that turns a byte address into a line address.
    @raise Invalid_argument unless [line_bytes] is a power of two. *)
let line_shift ~line_bytes =
  if line_bytes <= 0 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Cache.line_shift: line_bytes not a power of two";
  let rec go b n = if n <= 1 then b else go (b + 1) (n lsr 1) in
  go 0 line_bytes

let create ~name ~size_bytes ~ways ~line_bytes =
  let line_bits = line_shift ~line_bytes in
  let lines = size_bytes / line_bytes in
  if lines mod ways <> 0 then invalid_arg "Cache.create: geometry";
  let sets = lines / ways in
  if sets land (sets - 1) <> 0 then invalid_arg "Cache.create: sets not 2^k";
  let meta = Array.make (sets * ways * 3) 0 in
  for w = 0 to (sets * ways) - 1 do
    meta.(3 * w) <- -1;                  (* tag: invalid *)
    meta.((3 * w) + 2) <- demand_prov
  done;
  { name; sets; ways; line_bits; block = ways * 3; meta;
    stamp = 0; hits = 0; misses = 0; pf_hits = 0 }

let set_of t line = (line land (t.sets - 1)) * t.block

(* The scan loops below are top-level functions taking all their state as
   arguments: a local [let rec] capturing variables would allocate a
   closure on every call, and these run on every simulated access. The
   unchecked accesses are in range by construction: [base] is a set base
   from [set_of] and [off] stays below [block], so every index is inside
   the [sets * ways * 3] array. Results are entry indices — the position
   of a way's tag slot; last_use and prov live at +1 and +2. *)

let rec scan_ways (meta : int array) base (line : int) off block =
  if off = block then -1
  else if Array.unsafe_get meta (base + off) = line then base + off
  else scan_ways meta base line (off + 3) block

let rec pick_lru (meta : int array) base off best block =
  if off = block then best
  else
    pick_lru meta base (off + 3)
      (if Array.unsafe_get meta (base + off + 1) < Array.unsafe_get meta (best + 1)
       then base + off
       else best)
      block

(* Entry index of [line]'s tag slot, or -1. *)
let find t line =
  let base = set_of t line in
  scan_ways t.meta base line 0 t.block

(** [lookup t line] checks for [line], updating LRU and hit/miss counters.
    Returns the provenance of the line on a hit, [no_hit] on a miss. This
    runs on every simulated access, hence the int (not option) result. *)
let lookup t line : int =
  t.stamp <- t.stamp + 1;
  let i = find t line in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    Array.unsafe_set t.meta (i + 1) t.stamp;
    let p = Array.unsafe_get t.meta (i + 2) in
    if p <> demand_prov then begin
      t.pf_hits <- t.pf_hits + 1;
      (* After the first demand use the line counts as demand-resident. *)
      Array.unsafe_set t.meta (i + 2) demand_prov
    end;
    p
  end
  else begin
    t.misses <- t.misses + 1;
    no_hit
  end

(** [probe t line] tests presence without touching LRU or counters. *)
let probe t line = find t line >= 0

(** [insert_evict t line ~prov] installs [line], evicting the LRU way,
    and returns the evicted line's provenance: a prefetcher id when the
    victim was a never-demanded prefetch (its provenance survived because
    [lookup] clears provenance on first demand use), [demand_prov]
    otherwise (demand victim, invalid way, or [line] already present). *)
let insert_evict t line ~prov =
  t.stamp <- t.stamp + 1;
  let i = find t line in
  if i >= 0 then begin
    Array.unsafe_set t.meta (i + 1) t.stamp;
    demand_prov
  end
  else begin
    let base = set_of t line in
    let victim = pick_lru t.meta base 3 base t.block in
    let meta = t.meta in
    let victim_prov =
      if Array.unsafe_get meta victim < 0 then demand_prov
      else Array.unsafe_get meta (victim + 2)
    in
    Array.unsafe_set meta victim line;
    Array.unsafe_set meta (victim + 1) t.stamp;
    Array.unsafe_set meta (victim + 2) prov;
    victim_prov
  end

(** [insert_absent t line ~prov] is [insert_evict] for a line the caller
    has just observed missing (a [lookup]/[probe] miss with nothing in
    between that could install it): skips the presence re-scan, which the
    demand-miss path would otherwise pay at every level it already
    searched. *)
let insert_absent t line ~prov =
  t.stamp <- t.stamp + 1;
  let base = set_of t line in
  let victim = pick_lru t.meta base 3 base t.block in
  let meta = t.meta in
  let victim_prov =
    if Array.unsafe_get meta victim < 0 then demand_prov
    else Array.unsafe_get meta (victim + 2)
  in
  Array.unsafe_set meta victim line;
  Array.unsafe_set meta (victim + 1) t.stamp;
  Array.unsafe_set meta (victim + 2) prov;
  victim_prov

(** [insert t line ~prov] installs [line], evicting the LRU way. No-op if
    already present (refreshes LRU). *)
let insert t line ~prov = ignore (insert_evict t line ~prov)

let accesses t = t.hits + t.misses
