(* DRAM channel: fixed access latency plus a line-rate bandwidth limit.

   One shared channel serves all fills (demand and prefetch alike) at one
   cache line per [gap] cycles, so inaccurate prefetches delay useful
   traffic — the resource-contention mechanism behind the paper's §5.1
   insight about disabling hardware prefetchers. *)

type t = {
  latency : int;               (* cycles from issue to data *)
  gap : int;                   (* min cycles between line transfers *)
  mutable chan_free : int;     (* next cycle the channel can start a line *)
  mutable lines : int;         (* lines transferred (bandwidth accounting) *)
}

let create ~latency ~gap = { latency; gap; chan_free = 0; lines = 0 }

(** [fill t ~at] schedules one line transfer requested at cycle [at];
    returns the completion cycle. *)
let fill t ~at =
  let start = if at > t.chan_free then at else t.chan_free in
  t.chan_free <- start + t.gap;
  t.lines <- t.lines + 1;
  start + t.latency

let reset t =
  t.chan_free <- 0;
  t.lines <- 0
