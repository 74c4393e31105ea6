(* Structured event-trace sink.

   The simulator's memory hierarchy reports every observable memory-system
   event through one of these sinks. The hook is zero-cost when off: the
   hierarchy tests [enabled] (a plain bool) before constructing any event,
   so a disabled sink adds one predictable branch per access and allocates
   nothing — the engine-differential and bench-smoke checks hold the two
   execution engines to cycle-exactness and the tracing-off wall-clock to
   the recorded baseline.

   Events use plain ints (core index, simulated cycles, byte addresses,
   prefetcher provenance ids) so this library depends on nothing; the
   simulator adapts its own types at the call sites. *)

(** Cache level that serviced / received an event: 1 = L1, 2 = L2,
    3 = L3, 4 = DRAM; 0 = merged with an in-flight fill (MSHR hit). *)
type level = int

type drop_reason =
  | Mshr_full          (** fill dropped: no MSHR free *)
  | Present            (** fill dropped: line already present or in flight *)

type ev =
  | Load of { core : int; pc : int; addr : int; at : int; ready : int;
              level : level }
  | Store of { core : int; pc : int; addr : int; at : int }
  | Sw_prefetch of { core : int; addr : int; locality : int; at : int;
                     issued : bool }
  | Hw_prefetch of { core : int; src : int; line : int; at : int;
                     level : level }
  | Drop of { core : int; prov : int; line : int; at : int; level : level;
              reason : drop_reason }

type t = { enabled : bool; emit : ev -> unit }

(** The disabled sink: [enabled = false], emission is [ignore]. Producers
    must check [enabled] before building events; [null] makes the check
    the only cost. *)
let null = { enabled = false; emit = ignore }

let make emit = { enabled = true; emit }

let level_name = function
  | 0 -> "MSHR"
  | 1 -> "L1"
  | 2 -> "L2"
  | 3 -> "L3"
  | 4 -> "DRAM"
  | n -> "L" ^ string_of_int n
