(** Structured event-trace sink: the zero-cost-when-off hook the memory
    hierarchy reports events through. Producers must test [enabled]
    before constructing an event, so a disabled sink costs one branch per
    access and allocates nothing. *)

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

(** The disabled sink; checking [enabled] is the only cost. *)
val null : t

(** [make emit] is an enabled sink forwarding to [emit]. *)
val make : (ev -> unit) -> t

(** [level_name l] is "L1" / "L2" / "L3" / "DRAM" / "MSHR". *)
val level_name : level -> string
