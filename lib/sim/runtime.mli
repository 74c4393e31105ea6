(** Runtime buffer values and the simulated address space.

    The interpreter computes real results over these buffers while the
    timing model sees their simulated byte addresses. Bases are spaced and
    page-aligned so distinct buffers never share a cache line. *)

open Asap_ir

type rbuf =
  | RI of int array            (** index/position/coordinate buffers *)
  | RF of float array          (** f64 values *)
  | RB of Bytes.t              (** i8 values of binary matrices *)
  | RP of pattern              (** f64 values held only at a pattern *)

(** A pattern-backed f64 buffer: [p_len] elements to the simulated
    machine (layout, [DIM] and bounds checks all see the dense length,
    so addresses and traps are those of an [RF] of that length), but the
    host holds only the sorted distinct positions [p_pos] and one value
    per position in [p_vals]. An element outside the pattern reads as
    [0.]; storing [±0.] there is a no-op, and storing any other value
    there raises {!Fault} naming the buffer. SDDMM's output is one: its
    pattern is the sampling operand's. *)
and pattern = private {
  p_len : int;
  p_pos : int array;
  p_vals : float array;
  mutable p_hint : int;        (** index of the last position found *)
}

(** [pattern ~len pos] is a zeroed pattern buffer of dense length [len]
    over the positions [pos] (kept, not copied).
    @raise Invalid_argument unless [pos] is strictly increasing within
    [0, len). *)
val pattern : len:int -> int array -> pattern

(** [pattern_find p i] is the index of dense position [i] in [p.p_pos],
    or [-1] when [i] is outside the pattern. Allocation-free. *)
val pattern_find : pattern -> int -> int

(** A buffer bound into the address space. *)
type bound = {
  buf : Ir.buffer;
  data : rbuf;
  base : int;                  (** simulated base byte address *)
  ebytes : int;                (** element width for address arithmetic *)
}

val length_of : rbuf -> int

(** [layout fn pairs] assigns addresses to all of the function's buffers;
    the result is indexed by buffer id.
    @raise Invalid_argument on element-kind mismatch, double or missing
    bindings. *)
val layout : Ir.func -> (Ir.buffer * rbuf) list -> bound array

(** Raised by out-of-bounds demand accesses — the access fault the
    paper's step-2 bound must prevent (§3.2). *)
exception Fault of string

(** Formats-and-raises helper for {!Fault}. *)
val fault : ('a, unit, string, 'b) format4 -> 'a

(** [outside_pattern name i x] raises the {!Fault} for storing the
    nonzero [x] at position [i] of pattern buffer [name], outside its
    pattern. *)
val outside_pattern : string -> int -> float -> 'a

(** [read b i] reads element [i]. @raise Fault when out of bounds. *)
val read : bound -> int -> [ `F of float | `I of int ]

(** [write b i v] writes element [i]. @raise Fault when out of bounds. *)
val write : bound -> int -> [ `F of float | `I of int ] -> unit

(** [addr b i] is the simulated byte address of element [i] (allowed to be
    out of bounds: prefetches never fault). *)
val addr : bound -> int -> int
