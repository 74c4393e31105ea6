(** DRAM channel: fixed access latency plus a line-rate bandwidth limit.

    One shared channel serves all fills (demand and prefetch alike) at one
    cache line per [gap] cycles, so inaccurate prefetches delay useful
    traffic — the resource-contention mechanism behind the paper's §5.1
    insight. *)

type t = {
  latency : int;
  gap : int;
  mutable chan_free : int;
  mutable lines : int;         (** lines transferred (bandwidth counter) *)
}

val create : latency:int -> gap:int -> t

(** [fill t ~at] schedules one line transfer requested at cycle [at];
    returns the completion cycle. *)
val fill : t -> at:int -> int

(** [reset t] idles the channel and zeroes its counter: the state
    {!create} returns. *)
val reset : t -> unit
