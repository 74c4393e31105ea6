(** Matrix Market (.mtx) coordinate-format reader/writer.

    Supports the subset SuiteSparse distributes: object "matrix", format
    "coordinate", fields real/integer/pattern, symmetries
    general/symmetric/skew-symmetric. Pattern entries get value 1.0;
    symmetric storage is expanded to the full matrix on read. *)

exception Parse_error of string

(** [of_string s] parses in-memory .mtx text. Accepts CRLF line endings,
    leading/trailing whitespace, and blank or comment lines anywhere
    after the header; rejects duplicate coordinates (including
    duplicates produced by symmetry expansion).
    @raise Parse_error on malformed input. *)
val of_string : string -> Coo.t

(** [read path] parses the file at [path], as {!of_string}. *)
val read : string -> Coo.t

(** [to_string coo] renders general real coordinate format, sorted,
    with duplicate coordinates summed in element order.
    @raise Invalid_argument if [coo] is not rank 2. *)
val to_string : Coo.t -> string

(** [write path coo] writes [coo] to [path]. *)
val write : string -> Coo.t -> unit
