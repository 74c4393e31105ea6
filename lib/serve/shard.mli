(** Per-shard runtime state of the fleet replay: a bounded FIFO queue of
    request indices, a bank of virtual servers, and the shard's own
    compile/tune {!Lru} keyed by interned artefact id — driven by the
    fleet scheduler's sequential discrete-event loop, so no
    synchronisation is involved. *)

type t = {
  index : int;
  lru : (int, Build.entry) Lru.t;
  free : float array;        (** per-server next-free virtual ms *)
  queue : int array;
      (** ring buffer of admitted request indices, capacity
          [queue_limit]; only this module reads or writes it *)
  mutable first : int;       (** ring slot of the queue head *)
  mutable qlen : int;
  mutable queue_peak : int;
  mutable shed : int;        (** admission sheds (queue full or quota) *)
  mutable batches : int;     (** dispatches serving more than one request *)
  mutable batch_max : int;
  mutable steals_in : int;   (** batches this shard's servers stole *)
  mutable steals_out : int;  (** batches stolen from this shard's queue *)
  mutable invalidated : int;
      (** LRU entries dropped by streaming-update invalidation *)
  mutable stale_hits : int;
      (** cache hits serving an entry of a version other than the
          request's — 0 is the versioned-fingerprint invariant *)
}

val create :
  index:int -> servers:int -> cache_capacity:int -> queue_limit:int -> t

(** [full t] holds when [qlen t] has reached [queue_limit]. *)
val full : t -> bool

(** [enqueue t i] appends [i], maintaining [qlen] and [queue_peak].
    @raise Invalid_argument if the queue is {!full}. *)
val enqueue : t -> int -> unit

(** [head t] is the oldest queued index. @raise Invalid_argument if
    empty. *)
val head : t -> int

(** Earliest-free server index (lowest index on ties). *)
val min_server : t -> int

(** Pops the queue head. @raise Invalid_argument if empty. *)
val take : t -> int

(** [take_matching t pred] removes every queued index satisfying [pred]
    and returns them in queue order; the rest keep their order. *)
val take_matching : t -> (int -> bool) -> int list

(** [note_batch t nb] records a dispatch of [nb] requests. *)
val note_batch : t -> int -> unit
