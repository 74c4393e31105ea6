(* Host-parallel map over a persistent OCaml 5 domain pool.

   The simulator is deterministic and every grid cell builds its own
   Hierarchy, so independent cells are embarrassingly parallel on the
   host. Work is handed out through an atomic counter (dynamic
   load-balancing: cell costs vary by orders of magnitude with matrix
   size) and results land in a preallocated slot array, so the output
   order — and anything printed from it — is identical to a sequential
   run regardless of worker interleaving.

   Worker domains are created once and reused: the one process-global
   pool spawns domains that park on a condition variable between jobs,
   so repeated [map]s (the serve scheduler's build pass, [Tuning.tune
   ~jobs]'s candidate sweeps, the benchmark grid's per-figure prewarms)
   pay the ~ms domain spawn cost once instead of per call. The pool
   grows on demand to the largest [jobs] asked for and is joined at
   process exit.

   Caveat for callers: worker functions must not touch domain-unsafe
   shared state (e.g. a Hashtbl cache); do any memoisation on the calling
   domain after [map] returns. *)

type pool = {
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

let pool =
  { lock = Mutex.create ();
    work_cv = Condition.create ();
    done_cv = Condition.create ();
    workers = [||];
    gen = 0; task = None; acked = 0; busy = false; stop = false }

(* Whether the current domain takes part in a [map]: a worker always, the
   caller while it drains. A participant mapping again (e.g. a serve
   build running [Tuning.tune ~jobs]) must not wait for the pool to drain
   itself — it degrades to a sequential map instead of deadlocking. *)
let inside : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

(* [birth_gen] is [pool.gen] at the moment the spawn was decided (always
   a quiescent point: the pool is locked and not busy). Reading
   [pool.gen] from inside the worker instead would race with a concurrent
   publish: the worker would mark the new generation "seen" without
   running it and the caller would wait for its ack forever. *)
let worker_loop birth_gen () =
  Domain.DLS.get inside := true;
  let p = pool in
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

(* Joins every worker domain, waiting for an in-flight map first. *)
let shutdown () =
  let p = pool in
  Mutex.lock p.lock;
  while p.busy do Condition.wait p.done_cv p.lock done;
  p.stop <- true;
  Condition.broadcast p.work_cv;
  Mutex.unlock p.lock;
  Array.iter Domain.join p.workers;
  p.workers <- [||]

let () = at_exit shutdown

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

(** [map ~jobs f xs] is [Array.map f xs] computed by the calling domain
    plus at most [jobs - 1] pool workers (ticket-gated, so a small job
    never wakes the whole pool into the drain loop). Results are slotted
    by index, so output order is deterministic. The first exception
    raised by any [f] is re-raised on the calling domain after all
    workers join. *)
let map (type a b) ~jobs (f : a -> b) (xs : a array) : b array =
  let n = Array.length xs in
  let jobs = max 1 (min jobs n) in
  let inside = Domain.DLS.get inside in
  if jobs <= 1 || !inside then Array.map f xs
  else begin
    let p = pool in
    let results : b option array = Array.make n None in
    let first_error = Atomic.make None in
    let next = Atomic.make 0 in
    let drain = drain_loop ~f ~xs ~results ~first_error ~next in
    (* Tickets bound the number of workers that actually enter the drain
       loop to [jobs - 1]; latecomers see no ticket and ack immediately. *)
    let tickets = Atomic.make (jobs - 1) in
    let body () = if Atomic.fetch_and_add tickets (-1) > 0 then drain () in
    Mutex.lock p.lock;
    while p.busy do Condition.wait p.done_cv p.lock done;
    if p.stop then begin
      (* Only reachable from an exit handler after the pool was joined. *)
      Mutex.unlock p.lock;
      Array.map f xs
    end
    else begin
      let missing = jobs - 1 - Array.length p.workers in
      if missing > 0 then
        p.workers <-
          Array.append p.workers
            (Array.init missing (fun _ -> Domain.spawn (worker_loop p.gen)));
      p.busy <- true;
      p.task <- Some body;
      p.acked <- 0;
      p.gen <- p.gen + 1;
      Condition.broadcast p.work_cv;
      Mutex.unlock p.lock;
      (* The caller is a participant while it drains, so an [f] that maps
         again runs sequentially instead of waiting on [busy] (which this
         very call holds). *)
      inside := true;
      Fun.protect ~finally:(fun () -> inside := false) drain;
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
  end
