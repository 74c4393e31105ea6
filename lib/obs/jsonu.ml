(* Minimal JSON emission. The observability exporters (counter registry,
   Chrome traces, JSONL run records) only ever *write* JSON, and the
   container has no JSON package, so this is a small purpose-built
   printer: correct string escaping, locale-independent numbers, and
   deterministic field order (callers pass fields in the order they want
   them serialised). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let buf_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* %.17g round-trips every float; strip to the shortest representation
   the printf family offers that is still exact. Infinities and NaN are
   not valid JSON — clamp them to null. *)
let float_repr x =
  if Float.is_nan x || Float.is_integer (x /. 0.) then None
  else
    let s = Printf.sprintf "%.12g" x in
    if float_of_string s = x then Some s else Some (Printf.sprintf "%.17g" x)

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float x ->
    (match float_repr x with
     | None -> Buffer.add_string b "null"
     | Some s -> Buffer.add_string b s)
  | Str s ->
    Buffer.add_char b '"';
    buf_escape b s;
    Buffer.add_char b '"'
  | List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        buf_escape b k;
        Buffer.add_string b "\":";
        emit b v)
      fields;
    Buffer.add_char b '}'

(** [to_string j] is the compact (single-line) serialisation of [j]. *)
let to_string j =
  let b = Buffer.create 256 in
  emit b j;
  Buffer.contents b

(* --- Parsing -------------------------------------------------------- *)

(* A small recursive-descent parser, added when the serve subsystem made
   the observability layer bidirectional (request files are JSONL in, run
   records are JSONL out). Accepts standard JSON; numbers without '.',
   'e' or 'E' parse as [Int], everything else as [Float]; [\uXXXX]
   escapes are encoded as UTF-8 (surrogate pairs supported). *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let fail c msg =
  raise (Parse_error (Printf.sprintf "at offset %d: %s" c.pos msg))

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && (match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail c (Printf.sprintf "expected %c, found %c" ch x)
  | None -> fail c (Printf.sprintf "expected %c, found end of input" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

let hex4 c =
  if c.pos + 4 > String.length c.s then fail c "truncated \\u escape";
  let v = ref 0 in
  for i = 0 to 3 do
    let d =
      match c.s.[c.pos + i] with
      | '0' .. '9' as ch -> Char.code ch - Char.code '0'
      | 'a' .. 'f' as ch -> Char.code ch - Char.code 'a' + 10
      | 'A' .. 'F' as ch -> Char.code ch - Char.code 'A' + 10
      | _ -> fail c "invalid \\u escape"
    in
    v := (!v lsl 4) lor d
  done;
  c.pos <- c.pos + 4;
  !v

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' ->
      c.pos <- c.pos + 1;
      (match peek c with
       | None -> fail c "unterminated escape"
       | Some ch ->
         c.pos <- c.pos + 1;
         (match ch with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            let cp = hex4 c in
            let cp =
              if cp >= 0xD800 && cp <= 0xDBFF
                 && c.pos + 1 < String.length c.s
                 && c.s.[c.pos] = '\\' && c.s.[c.pos + 1] = 'u'
              then begin
                c.pos <- c.pos + 2;
                let lo = hex4 c in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                else fail c "invalid low surrogate"
              end
              else cp
            in
            add_utf8 b cp
          | _ -> fail c "invalid escape"));
      loop ()
    | Some ch ->
      Buffer.add_char b ch;
      c.pos <- c.pos + 1;
      loop ()
  in
  loop ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  let consume () = c.pos <- c.pos + 1 in
  if peek c = Some '-' then consume ();
  let rec digits () =
    match peek c with
    | Some ('0' .. '9') -> consume (); digits ()
    | _ -> ()
  in
  digits ();
  if peek c = Some '.' then begin
    is_float := true;
    consume ();
    digits ()
  end;
  (match peek c with
   | Some ('e' | 'E') ->
     is_float := true;
     consume ();
     (match peek c with Some ('+' | '-') -> consume () | _ -> ());
     digits ()
   | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail c ("invalid number " ^ text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None ->
      (* magnitude beyond native int: keep the value, as a float *)
      (match float_of_string_opt text with
       | Some f -> Float f
       | None -> fail c ("invalid number " ^ text))

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "expected a value, found end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' -> c.pos <- c.pos + 1; items (v :: acc)
        | Some ']' -> c.pos <- c.pos + 1; List.rev (v :: acc)
        | _ -> fail c "expected , or ] in array"
      in
      List (items [])
    end
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else begin
      let field () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws c;
        match peek c with
        | Some ',' -> c.pos <- c.pos + 1; fields (kv :: acc)
        | Some '}' -> c.pos <- c.pos + 1; List.rev (kv :: acc)
        | _ -> fail c "expected , or } in object"
      in
      Obj (fields [])
    end
  | Some ch -> fail c (Printf.sprintf "unexpected character %c" ch)

(** [of_string s] parses one JSON document (trailing whitespace allowed,
    trailing garbage rejected). *)
let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos < String.length s then
      Error (Printf.sprintf "at offset %d: trailing garbage" c.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* --- Accessors ------------------------------------------------------ *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str_opt = function Str s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
