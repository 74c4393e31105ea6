(* Host-parallel map over a persistent OCaml 5 domain pool.

   The simulator is deterministic and every grid cell builds its own
   Hierarchy, so independent cells are embarrassingly parallel on the
   host. Work is handed out through an atomic counter (dynamic
   load-balancing: cell costs vary by orders of magnitude with matrix
   size) and results land in a preallocated slot array, so the output
   order — and anything printed from it — is identical to a sequential
   run regardless of worker interleaving.

   Worker domains are created once and reused: [pool] spawns a set of
   domains that park on a condition variable between jobs, so repeated
   [map]s (the serve scheduler's batches, [Tuning.tune ~jobs]'s candidate
   sweeps, the benchmark grid's per-figure prewarms) pay the ~ms domain
   spawn cost once instead of per call. [Par.map ~jobs] routes through a
   lazily-created process-global pool and stays byte-compatible with the
   historical spawn-per-call implementation.

   Caveat for callers: worker functions must not touch domain-unsafe
   shared state (e.g. a Hashtbl cache); do any memoisation on the calling
   domain after [map] returns. *)

type pool = {
  id : int;                          (* for nested-call detection *)
  lock : Mutex.t;
  work_cv : Condition.t;             (* workers: a new generation exists *)
  done_cv : Condition.t;             (* caller: acks advanced / pool idle *)
  mutable workers : unit Domain.t array;
  mutable gen : int;                 (* generation of the current job *)
  mutable task : (unit -> unit) option;   (* body of generation [gen] *)
  mutable acked : int;               (* workers done with generation [gen] *)
  mutable busy : bool;               (* a job is published *)
  mutable stop : bool;
}

let next_pool_id = Atomic.make 0

(* Which pools the current domain is currently participating in — as a
   worker, or as the caller of an in-flight [map_pool]. A participant
   calling back into the same pool (e.g. a serve worker running
   [Tuning.tune ~jobs], or [f] itself mapping again) must not wait for
   that pool to drain itself — it degrades to a sequential map instead of
   deadlocking. *)
let worker_of : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let in_pool p = List.mem p.id !(Domain.DLS.get worker_of)

(* [birth_gen] is [p.gen] at the moment the spawn was decided (always a
   quiescent point: pool creation, or grow while not busy). Reading
   [p.gen] from inside the worker instead would race with a concurrent
   publish: the worker would mark the new generation "seen" without
   running it and the caller would wait for its ack forever. *)
let worker_loop p birth_gen () =
  let ids = Domain.DLS.get worker_of in
  ids := p.id :: !ids;
  Mutex.lock p.lock;
  let seen = ref birth_gen in
  let rec loop () =
    if p.stop then Mutex.unlock p.lock
    else if p.gen = !seen then begin
      Condition.wait p.work_cv p.lock;
      loop ()
    end
    else begin
      seen := p.gen;
      let body = p.task in
      Mutex.unlock p.lock;
      (match body with Some f -> f () | None -> ());
      Mutex.lock p.lock;
      p.acked <- p.acked + 1;
      Condition.broadcast p.done_cv;
      loop ()
    end
  in
  loop ()

let spawn_workers p n =
  let birth_gen = p.gen in
  let fresh = Array.init n (fun _ -> Domain.spawn (worker_loop p birth_gen)) in
  p.workers <- Array.append p.workers fresh

(** [pool ~workers] spawns [workers] parked helper domains (the calling
    domain is the implicit extra participant of every [map_pool]). *)
let pool ~workers =
  let p =
    { id = Atomic.fetch_and_add next_pool_id 1;
      lock = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      workers = [||];
      gen = 0; task = None; acked = 0; busy = false; stop = false }
  in
  spawn_workers p (max 0 workers);
  p

let pool_size p = Array.length p.workers

(* The shared drain loop: the caller and every participating worker pull
   indices from one atomic counter; results are slotted by index. *)
let drain_loop (type a b) ~(f : a -> b) ~(xs : a array)
    ~(results : b option array) ~first_error ~next () =
  let n = Array.length xs in
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match f xs.(i) with
       | v -> results.(i) <- Some v
       | exception e ->
         let bt = Printexc.get_raw_backtrace () in
         (* Keep the first failure; drain remaining work quickly. *)
         ignore (Atomic.compare_and_set first_error None (Some (e, bt)));
         Atomic.set next n);
      worker ()
    end
  in
  worker ()

(** [map_pool p ~jobs f xs] is [Array.map f xs] computed by up to [jobs]
    participants: the calling domain plus at most [jobs - 1] pool workers
    (ticket-gated, so a small job never wakes the whole pool into the
    drain loop). Concurrent callers serialise on the pool; a worker
    calling into its own pool degrades to a sequential map. *)
let map_pool (type a b) p ~jobs (f : a -> b) (xs : a array) : b array =
  let n = Array.length xs in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 || n <= 1 || pool_size p = 0 || in_pool p then Array.map f xs
  else begin
    let results : b option array = Array.make n None in
    let first_error = Atomic.make None in
    let next = Atomic.make 0 in
    let drain =
      drain_loop ~f ~xs ~results ~first_error ~next
    in
    (* Tickets bound the number of workers that actually enter the drain
       loop to [jobs - 1]; latecomers see no ticket and ack immediately. *)
    let tickets = Atomic.make (jobs - 1) in
    let body () = if Atomic.fetch_and_add tickets (-1) > 0 then drain () in
    Mutex.lock p.lock;
    while p.busy do Condition.wait p.done_cv p.lock done;
    if p.stop then begin
      Mutex.unlock p.lock;
      invalid_arg "Par.map_pool: pool is shut down"
    end;
    p.busy <- true;
    p.task <- Some body;
    p.acked <- 0;
    p.gen <- p.gen + 1;
    Condition.broadcast p.work_cv;
    Mutex.unlock p.lock;
    (* Mark the caller a participant of [p] while it drains, so an [f]
       that maps on the same pool runs sequentially instead of waiting on
       [busy] (which this very call holds). *)
    let ids = Domain.DLS.get worker_of in
    ids := p.id :: !ids;
    Fun.protect ~finally:(fun () -> ids := List.tl !ids) drain;
    Mutex.lock p.lock;
    while p.acked < Array.length p.workers do
      Condition.wait p.done_cv p.lock
    done;
    p.task <- None;
    p.busy <- false;
    Condition.broadcast p.done_cv;
    Mutex.unlock p.lock;
    match Atomic.get first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map Option.get results
  end

(** [shutdown p] joins every worker domain; subsequent [map_pool]s run
    sequentially (the pool is empty). Idempotent. *)
let shutdown p =
  Mutex.lock p.lock;
  while p.busy do Condition.wait p.done_cv p.lock done;
  p.stop <- true;
  Condition.broadcast p.work_cv;
  Mutex.unlock p.lock;
  Array.iter Domain.join p.workers;
  p.workers <- [||]

(* --- Slice leasing --------------------------------------------------- *)

(* A lease partitions a pool's worker budget among [shards] consumers
   without splitting the domains themselves: each slice is the same pool
   with a per-slice [jobs] cap, so shard s's builds use at most its
   share of the helpers (plus the calling domain). Slices of one pool
   must be DRAINED by a single caller (map_pool serialises concurrent
   callers anyway); the win is a deterministic, documented budget per
   shard rather than true concurrency between slices. *)

type slice = { sl_pool : pool; sl_jobs : int }

(** [lease p ~shards] partitions [pool_size p] helper domains into
    [shards] slices: slice [i] gets [size/shards] helpers plus one of
    the remainder for [i < size mod shards], plus the calling domain —
    so every budget is at least 1 and they sum to [pool_size p + shards].
    @raise Invalid_argument if [shards < 1]. *)
let lease p ~shards =
  if shards < 1 then invalid_arg "Par.lease: shards < 1";
  let size = pool_size p in
  let base = size / shards and rem = size mod shards in
  Array.init shards (fun i ->
      let helpers = base + if i < rem then 1 else 0 in
      { sl_pool = p; sl_jobs = helpers + 1 })

(** [map_slice s f xs] is {!map_pool} bounded by the slice's budget. *)
let map_slice s f xs = map_pool s.sl_pool ~jobs:s.sl_jobs f xs

(* --- The process-global pool behind [Par.map] ----------------------- *)

let global : pool option ref = ref None
let global_lock = Mutex.create ()

(* Grow-on-demand: [map ~jobs] may ask for more workers than any earlier
   call; matching the historical semantics (spawn [jobs - 1] domains)
   means growing the pool rather than clamping the job. *)
let global_pool ~workers =
  Mutex.lock global_lock;
  let p =
    match !global with
    | Some p when not p.stop ->
      if pool_size p < workers then begin
        Mutex.lock p.lock;
        while p.busy do Condition.wait p.done_cv p.lock done;
        spawn_workers p (workers - pool_size p);
        Mutex.unlock p.lock
      end;
      p
    | _ ->
      let p = pool ~workers in
      global := Some p;
      at_exit (fun () -> shutdown p);
      p
  in
  Mutex.unlock global_lock;
  p

(** [map ~jobs f xs] is [Array.map f xs] computed by [jobs] domains (the
    caller's included). Results are slotted by index, so output order is
    deterministic. The first exception raised by any [f] is re-raised on
    the calling domain after all workers join. *)
let map ~jobs (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 || n <= 1 then Array.map f xs
  else map_pool (global_pool ~workers:(jobs - 1)) ~jobs f xs
