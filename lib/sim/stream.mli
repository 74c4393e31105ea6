(** Memory-port streams: the loads, stores and software prefetches a
    kernel run makes, in call order.

    One recorder serves every check made on that stream: §3.2.2's
    prefetch-coverage claim (recorded through {!free_port}, independent
    of any timing model), the exact replay of a run into a fresh
    {!Hierarchy}, and the hierarchy's reference-model differential. *)

(** One memory-port call with its arguments. *)
type event =
  | Load of { core : int; pc : int; addr : int; at : int }
  | Store of { core : int; pc : int; addr : int; at : int }
  | Prefetch of { core : int; addr : int; locality : int; at : int }

(** A recorded stream, packed three ints per event; each load also keeps
    the ready cycle the port returned. *)
type t

(** [record run] calls [run obs] with a sink that records every [Load],
    [Store] and [Sw_prefetch] event it receives (hardware-prefetch and
    drop events are skipped), and returns the stream with [run]'s
    result.
    @raise Failure on a core above 255 or a load latency of 2{^24} or
    more cycles. *)
val record : (Asap_obs.Sink.t -> 'a) -> t * 'a

(** [length t] is the number of recorded events. *)
val length : t -> int

(** [events t] in call order. *)
val events : t -> event list

(** [replay t machine stats] feeds [t] to a fresh hierarchy on
    [machine]; true when every load's ready cycle equals the recording
    and the final statistics equal [stats] (the recorded run's). *)
val replay : t -> Machine.t -> Hierarchy.stats -> bool

(** [free_port obs] is a one-cycle memory port (every load is ready one
    cycle after issue; stores and prefetches cost nothing) that reports
    each call to [obs] as core 0's. With {!Asap_obs.Sink.null} it is the
    engine's port with no memory model at all. *)
val free_port : Asap_obs.Sink.t -> Interp.mem
