(* Sparse tensor encodings: the per-level storage description of MLIR's
   sparse_tensor dialect (paper §2.2, Fig. 1b).

   An encoding maps tensor dimensions to storage levels of the coordinate
   hierarchy tree. Each level is dense (all coordinates implicit),
   compressed (pos/crd buffers, optionally non-unique), or singleton (one
   child per parent, crd buffer only). *)

type level_format =
  | Dense
  | Compressed of { unique : bool }
  | Singleton

type index_width = W32 | W64

type t = {
  name : string;               (* "CSR", "COO", ... for printing *)
  levels : level_format array; (* one per storage level *)
  dim_to_lvl : int array;      (* level l stores dimension dim_to_lvl.(l) *)
  width : index_width;         (* pos/crd element width (paper §4.2) *)
  block : (int * int) option;  (* Some (bh, bw): levels index bh*bw blocks *)
}

let rank t = Array.length t.levels

let level_name = function
  | Dense -> "dense"
  | Compressed { unique = true } -> "compressed"
  | Compressed { unique = false } -> "compressed(nonunique)"
  | Singleton -> "singleton"

(** [has_pos l] tells whether level format [l] needs a positions buffer. *)
let has_pos = function Compressed _ -> true | Dense | Singleton -> false

(** [has_crd l] tells whether level format [l] needs a coordinates buffer. *)
let has_crd = function
  | Compressed _ | Singleton -> true
  | Dense -> false

let validate t =
  let r = rank t in
  if Array.length t.dim_to_lvl <> r then
    invalid_arg "Encoding: dim_to_lvl arity mismatch";
  let seen = Array.make r false in
  Array.iter
    (fun d ->
      if d < 0 || d >= r then invalid_arg "Encoding: dim out of range";
      if seen.(d) then invalid_arg "Encoding: dim mapped twice";
      seen.(d) <- true)
    t.dim_to_lvl;
  (match t.levels.(0) with
   | Singleton -> invalid_arg "Encoding: first level cannot be singleton"
   | Dense | Compressed _ -> ());
  (match t.block with
   | None -> ()
   | Some (bh, bw) ->
     if bh < 1 || bw < 1 then
       invalid_arg "Encoding: block sides must be positive";
     if r <> 2 then invalid_arg "Encoding: blocked formats are rank-2";
     (match t.levels with
      | [| Dense; Compressed { unique = true } |]
        when t.dim_to_lvl = [| 0; 1 |] -> ()
      | _ ->
        invalid_arg
          "Encoding: blocked storage requires dense-over-compressed \
           levels in (row, col) order"));
  t

let make ?(width = W32) name levels dim_to_lvl =
  validate { name; levels; dim_to_lvl; width; block = None }

(* The paper's three motivating 2-D formats (Fig. 1b), plus CSC and CSF. *)

let coo ?width () =
  make ?width "COO"
    [| Compressed { unique = false }; Singleton |]
    [| 0; 1 |]

let csr ?width () =
  make ?width "CSR" [| Dense; Compressed { unique = true } |] [| 0; 1 |]

let csc ?width () =
  make ?width "CSC" [| Dense; Compressed { unique = true } |] [| 1; 0 |]

let dcsr ?width () =
  make ?width "DCSR"
    [| Compressed { unique = true }; Compressed { unique = true } |]
    [| 0; 1 |]

(** Block Sparse Row: the matrix is tiled into [bh]x[bw] blocks; storage
    levels index the *block* coordinate space (dense block rows over
    compressed block columns), and each stored block carries bh*bw values
    (row-major, explicit zeros inside a block). Matrix dimensions need
    not divide the block sides — edge blocks are zero-padded in storage
    and clamped at iteration time. *)
let bsr ?(width = W32) ~bh ~bw () =
  validate
    { name = Printf.sprintf "BSR%dx%d" bh bw;
      levels = [| Dense; Compressed { unique = true } |];
      dim_to_lvl = [| 0; 1 |]; width; block = Some (bh, bw) }

(** [block_elems t] is the number of values per stored leaf: bh*bw for
    blocked encodings, 1 otherwise. *)
let block_elems t =
  match t.block with None -> 1 | Some (bh, bw) -> bh * bw

(** Compressed Sparse Fiber: all levels compressed, identity order. *)
let csf ?width r =
  if r < 1 then invalid_arg "Encoding.csf: rank must be positive";
  make ?width "CSF"
    (Array.make r (Compressed { unique = true }))
    (Array.init r Fun.id)

(** [to_string t] renders the #format attribute as in Fig. 1b. *)
let to_string t =
  let lvls =
    Array.to_list
      (Array.mapi
         (fun l fmt ->
           Printf.sprintf "d%d : %s" t.dim_to_lvl.(l) (level_name fmt))
         t.levels)
  in
  let blk =
    match t.block with
    | None -> ""
    | Some (bh, bw) -> Printf.sprintf ", block = %dx%d" bh bw
  in
  Printf.sprintf
    "#sparse_tensor.encoding<{ map = (%s) -> (%s)%s }> // %s"
    (String.concat ", "
       (List.init (rank t) (fun d -> Printf.sprintf "d%d" d)))
    (String.concat ", " lvls) blk t.name
