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

(** A fresh-value supply for passes that extend an existing function. *)
type supply

val supply : func -> supply
val fresh : supply -> string -> scalar -> value

(** [with_supply fn s] updates [fn]'s id bound after minting values. *)
val with_supply : func -> supply -> func
