(* Miss Status Holding Registers: the pool of outstanding fills.

   A demand miss to an in-flight line merges with it. When the pool is
   full, demand misses wait for the earliest completion, while prefetches
   are dropped — matching the hardware behaviour the paper's resource
   argument (§4.1) relies on.

   Every fill comes from the one DRAM channel, whose completion times
   strictly increase in request order, so fills complete in the order
   they were added: the pool is a FIFO, kept as a ring of parallel int
   arrays. Retiring completed fills drops a prefix of the ring (the
   common nothing-to-retire case is one comparison with the oldest), and
   the earliest completion is the oldest entry's. [add] rejects a fill
   that would break the order, so no caller can silently get a different
   pool. [counts] counts in-flight lines per [line land 63]: a zero
   proves a line absent, so [find] skips the scan for most lines. A line
   is never in flight twice (callers only add lines [find] says are
   absent), so the order of a scan cannot change what it finds.
   Completion times must be positive; [find] and [earliest] return -1
   for "absent" so callers stay allocation-free. *)

type t = {
  cap : int;
  lines : int array;           (* ring: line addresses of in-flight fills *)
  dones : int array;           (* their completion cycles (always > 0) *)
  provs : int array;           (* provenance of each fill; -1 = demand *)
  mutable head : int;          (* ring index of the oldest fill *)
  mutable used : int;
  mutable last_done : int;     (* completion of the newest fill ever added *)
  counts : Bytes.t;            (* in-flight lines per [line land 63] *)
}

let create cap =
  if cap < 1 || cap > 255 then invalid_arg "Mshr.create: capacity";
  { cap; lines = Array.make cap 0; dones = Array.make cap 0;
    provs = Array.make cap (-1); head = 0; used = 0; last_done = 0;
    counts = Bytes.make 64 '\000' }

(** [clear t] empties the pool: the state {!create} returns. *)
let clear t =
  t.head <- 0;
  t.used <- 0;
  t.last_done <- 0;
  Bytes.fill t.counts 0 64 '\000'

let[@inline] bump counts line d =
  let b = line land 63 in
  Bytes.unsafe_set counts b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get counts b) + d))

(* The ring index after [i]. *)
let[@inline] next t i = if i + 1 = t.cap then 0 else i + 1

(** [expire t ~now] retires entries whose fill has completed. *)
let expire t ~now =
  while t.used > 0 && Array.unsafe_get t.dones t.head <= now do
    bump t.counts (Array.unsafe_get t.lines t.head) (-1);
    t.head <- next t t.head;
    t.used <- t.used - 1
  done

(* Ring index of [line]'s entry among the [k] entries from [i], or -1.
   A top-level loop: a local [let rec] capturing state would allocate a
   closure per call, and this runs on every simulated access. Indices
   stay below [cap], so the unchecked reads are in range. *)
let rec scan t line i k =
  if k = 0 then -1
  else if Array.unsafe_get t.lines i = line then i
  else scan t line (next t i) (k - 1)

let[@inline] index t line =
  if Bytes.unsafe_get t.counts (line land 63) = '\000' then -1
  else scan t line t.head t.used

(** [find t line] is the completion time of an in-flight fill of [line],
    or -1 if none is in flight. *)
let find t line =
  let i = index t line in
  if i < 0 then -1 else Array.unsafe_get t.dones i

let full t = t.used >= t.cap

(** [earliest t] is the soonest completion among in-flight fills, or -1
    when the pool is empty. *)
let earliest t = if t.used = 0 then -1 else Array.unsafe_get t.dones t.head

(** [take_prov t line] is the provenance of the in-flight fill of [line]
    (-1 for demand fills or when nothing is in flight); clears it so the
    same fill is attributed at most once. *)
let take_prov t line =
  let i = index t line in
  if i < 0 then -1
  else begin
    let p = t.provs.(i) in
    t.provs.(i) <- -1;
    p
  end

(* [prov] is a required label: an optional argument here would box a
   [Some] per registered fill on the miss path. *)
let add ~prov t line done_at =
  if t.used >= t.cap || done_at <= 0 || done_at < t.last_done then
    invalid_arg "Mshr.add: pool full or fill out of completion order";
  let i = t.head + t.used in
  let i = if i >= t.cap then i - t.cap else i in
  t.lines.(i) <- line;
  t.dones.(i) <- done_at;
  t.provs.(i) <- prov;
  t.used <- t.used + 1;
  t.last_done <- done_at;
  bump t.counts line 1
