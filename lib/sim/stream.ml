(* Memory-port streams, recorded from an observability sink into flat
   ints and replayed into a fresh hierarchy.

   The hierarchy's sink sees one [Load], [Store] or [Sw_prefetch] event
   per port call, in call order, with the call's arguments (and, for a
   load, the ready cycle it returned). Calling [Hierarchy.load]/[store]/
   [prefetch] with the same arguments reproduces the run's hierarchy
   state exactly, so a replay checks itself. *)

module Sink = Asap_obs.Sink

type event =
  | Load of { core : int; pc : int; addr : int; at : int }
  | Store of { core : int; pc : int; addr : int; at : int }
  | Prefetch of { core : int; addr : int; locality : int; at : int }

(* Three ints per event: kind (0 load, 1 store, 2 prefetch) in bits
   0-1, core in bits 2-9, locality in bits 10-11 and pc from bit 12; the
   address; the issue cycle [at] from bit 24 with, for loads, the
   latency [ready - at] below it. *)
let width = 3

type t = { ev : int array; n : int }  (* [width * n] ints, maybe more *)

let record run =
  let buf = ref (Array.make (1 lsl 16) 0) and n = ref 0 in
  let push kind core locality pc addr at latency =
    if core lsr 8 <> 0 || latency lsr 24 <> 0 then
      failwith "Stream.record: core or latency out of range";
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
  let r = run obs in
  ({ ev = !buf; n = !n }, r)

let length t = t.n

let events t =
  List.init t.n (fun i ->
      let o = i * width in
      let k = t.ev.(o) and addr = t.ev.(o + 1) in
      let core = (k lsr 2) land 0xff and at = t.ev.(o + 2) asr 24 in
      match k land 3 with
      | 0 -> Load { core; pc = k asr 12; addr; at }
      | 1 -> Store { core; pc = k asr 12; addr; at }
      | _ -> Prefetch { core; addr; locality = (k lsr 10) land 3; at })

let replay t machine stats =
  let h = Hierarchy.create machine in
  let ev = t.ev in
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
  let exact = !ok && Hierarchy.stats h = stats in
  Hierarchy.release h;
  exact

(* Events are built only when [obs] is on, as the hierarchy does. *)
let free_port (obs : Sink.t) : Interp.mem =
  { Interp.m_load =
      (fun ~pc ~addr ~at ->
        let ready = at + 1 in
        if obs.Sink.enabled then
          obs.Sink.emit (Sink.Load { core = 0; pc; addr; at; ready; level = 1 });
        ready);
    m_store =
      (fun ~pc ~addr ~at ->
        if obs.Sink.enabled then
          obs.Sink.emit (Sink.Store { core = 0; pc; addr; at }));
    m_prefetch =
      (fun ~addr ~locality ~at ->
        if obs.Sink.enabled then
          obs.Sink.emit
            (Sink.Sw_prefetch { core = 0; addr; locality; at; issued = false })) }
