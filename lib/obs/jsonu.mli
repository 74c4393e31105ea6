(** Minimal JSON emission for the observability exporters (the container
    has no JSON package; we only ever write JSON). Field order is the
    order callers pass. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float     (** NaN / infinities serialise as [null] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [to_string j] is the compact (single-line) serialisation of [j]. *)
val to_string : t -> string

(** {1 Parsing}

    Added when the serve subsystem made this layer bidirectional
    (request files are JSONL in, run records are JSONL out). *)

(** [of_string s] parses one JSON document. Numbers without ['.'] / ['e']
    parse as [Int], others as [Float]; [\uXXXX] escapes decode to UTF-8.
    Trailing whitespace is allowed, trailing garbage is an [Error]. *)
val of_string : string -> (t, string) result

(** {1 Accessors} — shallow, total destructors for parsed documents. *)

(** [member k j] is field [k] of object [j] ([None] on non-objects). *)
val member : string -> t -> t option

(** [Int], or an integral [Float]. *)
val to_int_opt : t -> int option

(** [Float], or an [Int] widened. *)
val to_float_opt : t -> float option

val to_str_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
