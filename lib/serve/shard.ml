(* Per-shard runtime state of the fleet replay.

   A shard owns what a single classic scheduler owned: a bounded FIFO
   queue of admitted request indices, a bank of virtual servers (their
   next-free virtual times), and its own compile/tune LRU keyed by
   interned artefact id. The fleet scheduler drives an array of these
   from one sequential discrete-event loop, so nothing here needs
   synchronisation — the mutability is plain record fields, and every
   counter is attributed to exactly one shard: admission (queue/quota
   sheds, queue peak) to the request's home shard, service (batches,
   cache traffic, steals) to the shard whose server dispatched it.

   The queue is a ring buffer of capacity [queue_limit]: admission and
   dispatch of the head are O(1) and allocate nothing, and a batch
   dispatch compacts the survivors in place. *)

type t = {
  index : int;
  lru : (int, Build.entry) Lru.t;      (* this shard's compile/tune cache *)
  free : float array;                  (* per-server next-free virtual ms *)
  queue : int array;                   (* ring of admitted request indices *)
  mutable first : int;                 (* ring slot of the queue head *)
  mutable qlen : int;
  mutable queue_peak : int;
  mutable shed : int;                  (* admission sheds (queue + quota) *)
  mutable batches : int;               (* dispatches serving > 1 request *)
  mutable batch_max : int;
  mutable steals_in : int;             (* batches this shard's servers stole *)
  mutable steals_out : int;            (* batches stolen from this queue *)
  mutable invalidated : int;           (* LRU entries dropped by updates *)
  mutable stale_hits : int;            (* hits on a wrong-version entry *)
}

let create ~index ~servers ~cache_capacity ~queue_limit =
  { index; lru = Lru.create ~capacity:cache_capacity;
    free = Array.make servers 0.; queue = Array.make queue_limit 0;
    first = 0; qlen = 0; queue_peak = 0; shed = 0; batches = 0;
    batch_max = 0; steals_in = 0; steals_out = 0; invalidated = 0;
    stale_hits = 0 }

let full t = t.qlen = Array.length t.queue

(* Ring slot of the [k]-th oldest queued index. *)
let slot t k = (t.first + k) mod Array.length t.queue

let enqueue t i =
  if full t then invalid_arg "Shard.enqueue: queue full";
  t.queue.(slot t t.qlen) <- i;
  t.qlen <- t.qlen + 1;
  if t.qlen > t.queue_peak then t.queue_peak <- t.qlen

let head t =
  if t.qlen = 0 then invalid_arg "Shard.head: empty queue";
  t.queue.(t.first)

let min_server t =
  let s = ref 0 in
  for k = 1 to Array.length t.free - 1 do
    if t.free.(k) < t.free.(!s) then s := k
  done;
  !s

let take t =
  let h = head t in
  t.first <- slot t 1;
  t.qlen <- t.qlen - 1;
  h

let take_matching t pred =
  let taken = ref [] and kept = ref 0 in
  for k = 0 to t.qlen - 1 do
    let i = t.queue.(slot t k) in
    if pred i then taken := i :: !taken
    else begin
      (* [kept <= k]: the slot written was already read. *)
      t.queue.(slot t !kept) <- i;
      incr kept
    end
  done;
  t.qlen <- !kept;
  List.rev !taken

let note_batch t nb =
  if nb > 1 then t.batches <- t.batches + 1;
  if nb > t.batch_max then t.batch_max <- nb
