(* Matrix Market (.mtx) coordinate-format reader/writer.

   Supports the subset SuiteSparse distributes: object "matrix", format
   "coordinate", fields real/integer/pattern, symmetries general/symmetric/
   skew-symmetric. Pattern entries get value 1.0. Symmetric storage is
   expanded to the full matrix on read. *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type field = Real | Integer | Pattern
type symmetry = General | Symmetric | Skew_symmetric

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

let parse_header line =
  match split_ws (String.lowercase_ascii line) with
  | bang :: "matrix" :: "coordinate" :: field :: sym :: _
    when bang = "%%matrixmarket" ->
    let field =
      match field with
      | "real" -> Real
      | "integer" -> Integer
      | "pattern" -> Pattern
      | f -> fail "unsupported field %S" f
    in
    let sym =
      match sym with
      | "general" -> General
      | "symmetric" -> Symmetric
      | "skew-symmetric" -> Skew_symmetric
      | s -> fail "unsupported symmetry %S" s
    in
    (field, sym)
  | _ -> fail "bad MatrixMarket header: %S" line

(** [of_lines lines] parses the line sequence of a .mtx file. Tolerant of
    real-world SuiteSparse files: CRLF line endings, leading/trailing
    whitespace, and blank or ["%"]-comment lines anywhere after the
    header are accepted. Duplicate coordinates (including those produced
    by symmetry expansion) are rejected with a clear error — silently
    keeping them would mis-state nnz and skew every per-nnz metric. *)
let of_lines (lines : string Seq.t) : Coo.t =
  (* [String.trim] strips the '\r' of CRLF files along with surrounding
     blanks, so every later stage sees clean tokens. *)
  let lines = Seq.map String.trim lines in
  let lines = Seq.filter (fun l -> l <> "") lines in
  match lines () with
  | Seq.Nil -> fail "empty file"
  | Seq.Cons (header, rest) ->
    let field, sym = parse_header header in
    let rest = Seq.filter (fun l -> l.[0] <> '%') rest in
    (match rest () with
     | Seq.Nil -> fail "missing size line"
     | Seq.Cons (size_line, entries) ->
       let rows, cols, nnz =
         match split_ws size_line with
         | [ r; c; n ] ->
           (try (int_of_string r, int_of_string c, int_of_string n)
            with Failure _ -> fail "bad size line: %S" size_line)
         | _ -> fail "bad size line: %S" size_line
       in
       (* Symmetry expansion at most doubles the declared entries; a
         file with more lines than declared stops storing once full and
         fails the count check below. *)
       let cap = max 0 (if sym = General then nnz else 2 * nnz) in
       let ci = Array.make cap 0 and cj = Array.make cap 0 in
       let cv = Array.make cap 0. in
       let stored = ref 0 and count = ref 0 in
       let seen = Hashtbl.create (max 16 nnz) in
       let add i j v =
         let key = (i * cols) + j in
         if Hashtbl.mem seen key then
           fail "duplicate entry (%d, %d)" (i + 1) (j + 1);
         Hashtbl.add seen key ();
         if !stored < cap then begin
           ci.(!stored) <- i;
           cj.(!stored) <- j;
           cv.(!stored) <- v;
           incr stored
         end
       in
       Seq.iter
         (fun line ->
           let i, j, v =
             match split_ws line, field with
             | [ i; j ], Pattern -> (int_of_string i, int_of_string j, 1.0)
             | [ i; j; v ], (Real | Integer) ->
               (int_of_string i, int_of_string j, float_of_string v)
             | [ i; j; v ], Pattern ->
               (int_of_string i, int_of_string j, float_of_string v)
             | _ -> fail "bad entry line: %S" line
           in
           let i = i - 1 and j = j - 1 in
           if i < 0 || i >= rows || j < 0 || j >= cols then
             fail "entry (%d, %d) out of %dx%d" (i + 1) (j + 1) rows cols;
           add i j v;
           (match sym with
            | General -> ()
            | Symmetric -> if i <> j then add j i v
            | Skew_symmetric -> if i <> j then add j i (-.v));
           incr count)
         entries;
       if !count <> nnz then
         fail "expected %d entries, found %d" nnz !count;
       let trim a = Array.sub a 0 !stored in
       Coo.create ~dims:[| rows; cols |] ~crd:[| trim ci; trim cj |]
         ~vals:(trim cv))

let of_string s = of_lines (String.split_on_char '\n' s |> List.to_seq)

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = In_channel.input_lines ic in
      of_lines (List.to_seq lines))

(** [to_string coo] writes general real coordinate format. The reader
    rejects duplicate coordinates, so entries are written sorted with
    duplicates summed in element order — as {!Coo.to_dense} and the pack
    sum them. *)
let to_string (coo : Coo.t) =
  if Coo.rank coo <> 2 then invalid_arg "Matrix_market.to_string: not a matrix";
  let coo = Coo.sorted_dedup coo in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "%%MatrixMarket matrix coordinate real general\n";
  Buffer.add_string buf
    (Printf.sprintf "%d %d %d\n" coo.dims.(0) coo.dims.(1) (Coo.nnz coo));
  Array.iteri
    (fun k v ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %.17g\n" (coo.crd.(0).(k) + 1)
           (coo.crd.(1).(k) + 1) v))
    coo.vals;
  Buffer.contents buf

let write path coo =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string coo))
