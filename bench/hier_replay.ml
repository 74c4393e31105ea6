(* Memory-port streams, recorded once and replayed into a fresh
   hierarchy: the per-layer measure of the simulated memory system.

   A kernel run's observability sink sees one [Load], [Store] or
   [Sw_prefetch] event per call of the hierarchy's port, in call order,
   each with its arguments (and, for loads, the returned ready cycle).
   Recording those and calling [Hierarchy.load]/[store]/[prefetch] with
   the same arguments reproduces the run's hierarchy state exactly, so a
   replay checks itself: every ready cycle and the final
   [Hierarchy.stats] must equal the recording. Timing a replay isolates
   the hierarchy from the engine that produced the stream. *)

module Machine = Asap_sim.Machine
module Hierarchy = Asap_sim.Hierarchy
module Sink = Asap_obs.Sink

(* Three ints per event: kind (0 load, 1 store, 2 prefetch) in bits
   0-1, core in bits 2-9, locality in bits 10-11 and pc from bit 12; the
   address; the issue cycle [at] from bit 24 with, for loads, the
   latency [ready - at] below it. *)
let width = 3

type t = {
  machine : Machine.t;
  events : int array;          (* [width * n] ints, maybe more *)
  n : int;
  stats : Hierarchy.stats;     (* the recorded run's final statistics *)
}

(** [record machine run] records the memory-port stream of [run obs],
    which must execute exactly one kernel run on [machine] with [obs] as
    its sink and return its final statistics. *)
let record machine (run : Sink.t -> Hierarchy.stats) : t =
  let buf = ref (Array.make (1 lsl 16) 0) and n = ref 0 in
  let push kind core locality pc addr at latency =
    if core lsr 8 <> 0 || latency lsr 24 <> 0 then
      failwith "Hier_replay.record: core or latency out of range";
    if (!n + 1) * width > Array.length !buf then begin
      let b = Array.make (2 * Array.length !buf) 0 in
      Array.blit !buf 0 b 0 (!n * width);
      buf := b
    end;
    let b = !buf and o = !n * width in
    b.(o) <- kind lor (core lsl 2) lor (locality lsl 10) lor (pc lsl 12);
    b.(o + 1) <- addr;
    b.(o + 2) <- (at lsl 24) lor latency;
    incr n
  in
  let obs =
    Sink.make (function
      | Sink.Load { core; pc; addr; at; ready; _ } ->
        push 0 core 0 pc addr at (ready - at)
      | Sink.Store { core; pc; addr; at } -> push 1 core 0 pc addr at 0
      | Sink.Sw_prefetch { core; addr; locality; at; _ } ->
        push 2 core locality 0 addr at 0
      | Sink.Hw_prefetch _ | Sink.Drop _ -> ())
  in
  let stats = run obs in
  { machine; events = !buf; n = !n; stats }

(** [replay t] feeds [t]'s stream to a fresh hierarchy; true when every
    load's ready cycle and the final statistics equal the recording. *)
let replay t =
  let h = Hierarchy.create t.machine in
  let ev = t.events in
  let ok = ref true in
  for i = 0 to t.n - 1 do
    let o = i * width in
    let k = ev.(o) and addr = ev.(o + 1) and w = ev.(o + 2) in
    let core = (k lsr 2) land 0xff and at = w asr 24 in
    match k land 3 with
    | 0 ->
      let ready = Hierarchy.load h ~core ~pc:(k asr 12) ~addr ~at in
      if ready <> at + (w land 0xffffff) then ok := false
    | 1 -> Hierarchy.store h ~core ~pc:(k asr 12) ~addr ~at
    | _ -> Hierarchy.prefetch h ~core ~addr ~locality:((k lsr 10) land 3) ~at
  done;
  let exact = !ok && Hierarchy.stats h = t.stats in
  Hierarchy.release h;
  exact
