(* Multi-core simulation via effect handlers.

   Each core interprets its slice of the kernel as a fiber that performs an
   effect at every memory event; the scheduler always resumes the fiber
   whose next event is earliest in simulated time, so cores interleave
   correctly on the shared L2/L3/DRAM resources. This replaces the paper's
   OpenMP dense-outer-loop execution (§4.3) with deterministic simulated
   parallelism. *)

open Effect
open Effect.Deep

type _ Effect.t +=
  | Eload : { pc : int; addr : int; at : int } -> int Effect.t
  | Estore : { pc : int; addr : int; at : int } -> unit Effect.t
  | Eprefetch : { addr : int; locality : int; at : int } -> unit Effect.t

type req =
  | Rload of { pc : int; addr : int; at : int }
  | Rstore of { pc : int; addr : int; at : int }
  | Rprefetch of { addr : int; locality : int; at : int }

let req_time = function
  | Rload { at; _ } | Rstore { at; _ } | Rprefetch { at; _ } -> at

type step =
  | Done of Interp.result
  | Wait_load of req * (int, step) continuation
  | Wait_unit of req * (unit, step) continuation

let effect_mem : Interp.mem =
  { Interp.m_load = (fun ~pc ~addr ~at -> perform (Eload { pc; addr; at }));
    m_store = (fun ~pc ~addr ~at -> perform (Estore { pc; addr; at }));
    m_prefetch =
      (fun ~addr ~locality ~at -> perform (Eprefetch { addr; locality; at })) }

let handler : (Interp.result, step) handler =
  { retc = (fun r -> Done r);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Eload r ->
          Some
            (fun (k : (a, step) continuation) ->
              Wait_load (Rload { pc = r.pc; addr = r.addr; at = r.at }, k))
        | Estore r ->
          Some
            (fun (k : (a, step) continuation) ->
              Wait_unit (Rstore { pc = r.pc; addr = r.addr; at = r.at }, k))
        | Eprefetch r ->
          Some
            (fun (k : (a, step) continuation) ->
              Wait_unit
                ( Rprefetch
                    { addr = r.addr; locality = r.locality; at = r.at },
                  k ))
        | _ -> None) }

(** [run hier ~core_run ~slices] runs [core_run] once per slice (static
    row partitioning), interleaving their memory events on the shared
    hierarchy. Returns per-core results. *)
let run (hier : Hierarchy.t)
    ~(core_run : slice:int * int -> mem:Interp.mem -> Interp.result)
    ~(slices : (int * int) array) : Interp.result array =
  let n = Array.length slices in
  let steps =
    Array.init n (fun c ->
        match_with
          (fun () -> core_run ~slice:slices.(c) ~mem:effect_mem)
          () handler)
  in
  let results = Array.make n None in
  let finished = ref 0 in
  Array.iteri
    (fun c s -> match s with Done r -> results.(c) <- Some r; incr finished | _ -> ())
    steps;
  while !finished < n do
    (* Pick the pending core with the earliest event time. *)
    let best = ref (-1) and best_t = ref max_int in
    Array.iteri
      (fun c s ->
        match s with
        | Done _ -> ()
        | Wait_load (r, _) | Wait_unit (r, _) ->
          if req_time r < !best_t then begin
            best := c;
            best_t := req_time r
          end)
      steps;
    let c = !best in
    assert (c >= 0);
    let next =
      match steps.(c) with
      | Done _ -> assert false
      | Wait_load (Rload { pc; addr; at }, k) ->
        let ready = Hierarchy.load hier ~core:c ~pc ~addr ~at in
        continue k ready
      | Wait_load ((Rstore _ | Rprefetch _), _) -> assert false
      | Wait_unit (Rstore { pc; addr; at }, k) ->
        Hierarchy.store hier ~core:c ~pc ~addr ~at;
        continue k ()
      | Wait_unit (Rprefetch { addr; locality; at }, k) ->
        Hierarchy.prefetch hier ~core:c ~addr ~locality ~at;
        continue k ()
      | Wait_unit (Rload _, _) -> assert false
    in
    steps.(c) <- next;
    (match next with
     | Done r ->
       results.(c) <- Some r;
       incr finished
     | Wait_load _ | Wait_unit _ -> ())
  done;
  Array.map Option.get results
