(** Generic traversal and use-def utilities over {!Ir} functions.

    These are the "low-level" analyses available to a post-hoc pass such as
    the Ainsworth & Jones baseline: IR structure only, none of the
    sparsification-time semantic context ASaP enjoys. *)

open Ir

(** [def_table fn] maps a value id to its defining rvalue when the
    definition is a [Let]; region arguments and loop results map to
    [None]. *)
val def_table : func -> rvalue option array

(** [loads fn] lists every load as (defined value, buffer, index). *)
val loads : func -> (value * buffer * value) list

(** [contains_for b] tests whether a block contains a for loop at any
    depth. *)
val contains_for : block -> bool

(** [map_fors f fn] rebuilds [fn], replacing every for loop [fl] by
    [f ~innermost fl]; children are transformed before parents, and
    [innermost] says whether the (transformed) body contains no for
    loop. *)
val map_fors : (innermost:bool -> forloop -> forloop) -> func -> func

(** [contains_loop b] tests whether a block contains a for or while
    loop, looking through ifs. *)
val contains_loop : block -> bool

(** {1 The rewriting toolkit}

    One value supply, one use substitution and one block clone, shared
    by every pass that adds values to an existing function (unrolling,
    specialization, the Ainsworth & Jones baseline). *)

(** A fresh-value supply; ids continue from the function's bound. *)
type supply

val supply : func -> supply
val fresh : supply -> string -> scalar -> value

(** [copy s v] is a fresh value with [v]'s name and type. *)
val copy : supply -> value -> value

(** [with_supply fn s] updates [fn]'s id bound after minting values. *)
val with_supply : func -> supply -> func

(** [lookup tbl v] is [tbl]'s replacement for [v]'s id, or [v]. *)
val lookup : (int, value) Hashtbl.t -> value -> value

(** [map_uses_rv look rv] rewrites every operand of [rv] through [look]. *)
val map_uses_rv : (value -> value) -> rvalue -> rvalue

(** [map_uses look b] rewrites every value use in [b] through [look];
    definitions (lets, induction variables, region arguments, loop
    results) keep their ids. *)
val map_uses : (value -> value) -> block -> block

(** [clone s ?outer subst b] copies [b], giving every value it defines
    a fresh id from [s] in definition order and recording old id -> new
    value in [subst]. A use is looked up in [subst] (which the caller
    may seed, e.g. with an induction variable's replacement), then
    through [outer] (default: unchanged). *)
val clone :
  supply -> ?outer:(value -> value) -> (int, value) Hashtbl.t -> block ->
  block
