(** Named-counter registry: stable dotted names ("core.cycles",
    "l2.miss.demand", "pf.sw.late", ...) mapping to integer counts. The
    canonical export is the name-sorted assoc list, so two registries are
    byte-identical exactly when every counter agrees. The catalogue of
    names is documented in DESIGN.md §3c. *)

type t

val create : unit -> t

(** [set t name v] registers [name] at [v], overwriting. *)
val set : t -> string -> int -> unit

(** [add t name v] adds [v] to [name] (registering at [v] if absent). *)
val add : t -> string -> int -> unit

val get : t -> string -> int option

(** [find t name] defaults to 0: counters that never fired read as 0. *)
val find : t -> string -> int

(** [sum_prefix t ?leaf prefix] sums counters whose name starts with
    [prefix] and (when [leaf] is given) ends with [".leaf"]; 0 when
    nothing matches. E.g. [sum_prefix t ~leaf:"ok" "serve.shard."]
    folds [serve.shard.<i>.ok] over every shard. *)
val sum_prefix : t -> ?leaf:string -> string -> int

(** [to_assoc t] is the canonical export: counters sorted by name. *)
val to_assoc : t -> (string * int) list

(** [names t] in sorted order. *)
val names : t -> string list

val of_assoc : (string * int) list -> t

(** [snapshot t] is an immutable copy of [t]'s current counters —
    subsequent mutation of [t] does not affect it. *)
val snapshot : t -> t

(** [diff ~before ~after] is the per-counter change [after - before],
    name-sorted, dropping unchanged counters. Counters absent on one
    side read as 0. *)
val diff : before:t -> after:t -> (string * int) list

(** [to_json t] is one JSON object, keys sorted. *)
val to_json : t -> string

(** [pp ppf t] prints one [name value] line per counter, sorted. *)
val pp : Format.formatter -> t -> unit
