(* Differential and golden tests for the COO → storage path.

   [Ref] is a frozen copy of the boxed-tuple pack this layout replaced:
   one [int array] per element, a comparator sort with the element index
   as tie-break, (start, end) tuple segments, and a tuple-keyed hash
   table for block storage. [Storage.pack] and [Coo.sorted_dedup] must
   equal it structurally, float bits included, on every encoding and on
   the degenerate COOs (duplicates, empty rows and columns, zero
   extents, nnz 0, extents far beyond nnz).

   The golden digests pin the generators' and [Update.apply]'s element
   order and RNG draws, as they were before flat emission. *)

open Asap_tensor
module Generate = Asap_workloads.Generate
module Request = Asap_serve.Request

module Ref = struct
  (* Element [k]'s boxed coordinate tuple. *)
  let tuples (c : Coo.t) =
    Array.init (Coo.nnz c) (fun k -> Array.map (fun d -> d.(k)) c.Coo.crd)

  let compare_perm perm a b =
    let rec go l =
      if l = Array.length perm then 0
      else
        let c = compare a.(perm.(l)) b.(perm.(l)) in
        if c <> 0 then c else go (l + 1)
    in
    go 0

  (* Sorted, deduplicated tuples and their summed values. *)
  let sorted_dedup perm (c : Coo.t) =
    let coords = tuples c in
    let n = Array.length coords in
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        let r = compare_perm perm coords.(a) coords.(b) in
        if r <> 0 then r else compare a b)
      order;
    let out_c = ref [] and out_v = ref [] in
    let k = ref 0 in
    while !k < n do
      let cd = coords.(order.(!k)) in
      let v = ref 0. in
      while !k < n && compare_perm perm coords.(order.(!k)) cd = 0 do
        v := !v +. c.Coo.vals.(order.(!k));
        incr k
      done;
      out_c := cd :: !out_c;
      out_v := !v :: !out_v
    done;
    (Array.of_list (List.rev !out_c), Array.of_list (List.rev !out_v))

  let pack_plain (enc : Encoding.t) (coo : Coo.t) : Storage.t =
    let coords, svals = sorted_dedup enc.dim_to_lvl coo in
    let n = Array.length coords in
    let rank = Encoding.rank enc in
    let key l k = coords.(k).(enc.dim_to_lvl.(l)) in
    let segs = ref [| (0, n) |] in
    let lvls = Array.make rank (Storage.Ldense { lsize = 0 }) in
    for l = 0 to rank - 1 do
      let parents = !segs in
      let np = Array.length parents in
      match enc.levels.(l) with
      | Encoding.Dense ->
        let lsize = coo.Coo.dims.(enc.dim_to_lvl.(l)) in
        let out = Array.make (np * lsize) (0, 0) in
        Array.iteri
          (fun p (s, e) ->
            let i = ref s in
            for v = 0 to lsize - 1 do
              let s' = !i in
              while !i < e && key l !i = v do incr i done;
              out.((p * lsize) + v) <- (s', !i)
            done)
          parents;
        lvls.(l) <- Storage.Ldense { lsize };
        segs := out
      | Encoding.Compressed { unique = true } ->
        let pos = Array.make (np + 1) 0 in
        let crd = ref [] and out = ref [] and count = ref 0 in
        Array.iteri
          (fun p (s, e) ->
            let i = ref s in
            while !i < e do
              let v = key l !i in
              let s' = !i in
              while !i < e && key l !i = v do incr i done;
              crd := v :: !crd;
              out := (s', !i) :: !out;
              incr count
            done;
            pos.(p + 1) <- !count)
          parents;
        lvls.(l) <-
          Storage.Lcompressed
            { pos; crd = Array.of_list (List.rev !crd); unique = true };
        segs := Array.of_list (List.rev !out)
      | Encoding.Compressed { unique = false } ->
        let pos = Array.make (np + 1) 0 in
        let crd = Array.make n 0 in
        let out = Array.make n (0, 0) in
        Array.iteri
          (fun p (s, e) ->
            for i = s to e - 1 do
              crd.(i) <- key l i;
              out.(i) <- (i, i + 1)
            done;
            pos.(p + 1) <- e)
          parents;
        lvls.(l) <- Storage.Lcompressed { pos; crd; unique = false };
        segs := out
      | Encoding.Singleton ->
        let crd = Array.make n 0 in
        let out = Array.make n (0, 0) in
        Array.iter
          (fun (s, e) ->
            for i = s to e - 1 do
              crd.(i) <- key l i;
              out.(i) <- (i, i + 1)
            done)
          parents;
        lvls.(l) <- Storage.Lsingleton { crd };
        segs := out
    done;
    let leaves = !segs in
    let vals = Array.make (Array.length leaves) 0. in
    Array.iteri (fun node (s, e) -> if e > s then vals.(node) <- svals.(s))
      leaves;
    { Storage.enc; dims = Array.copy coo.Coo.dims; lvls; vals }

  let pack_blocked (enc : Encoding.t) ~bh ~bw (coo : Coo.t) : Storage.t =
    let coords, svals = sorted_dedup [| 0; 1 |] coo in
    let n = Array.length coords in
    let nbr = (coo.Coo.dims.(0) + bh - 1) / bh in
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun c ->
        let key = (c.(0) / bh, c.(1) / bw) in
        if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key 0)
      coords;
    let blocks =
      Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
      |> List.sort compare |> Array.of_list
    in
    Array.iteri (fun idx k -> Hashtbl.replace tbl k idx) blocks;
    let nb = Array.length blocks in
    let pos = Array.make (nbr + 1) 0 in
    let crd = Array.make nb 0 in
    Array.iteri
      (fun idx (ib, jb) ->
        crd.(idx) <- jb;
        pos.(ib + 1) <- pos.(ib + 1) + 1)
      blocks;
    for r = 1 to nbr do pos.(r) <- pos.(r) + pos.(r - 1) done;
    let be = bh * bw in
    let vals = Array.make (nb * be) 0. in
    for k = 0 to n - 1 do
      let i = coords.(k).(0) and j = coords.(k).(1) in
      let idx = Hashtbl.find tbl (i / bh, j / bw) in
      vals.((idx * be) + ((i mod bh) * bw) + (j mod bw)) <- svals.(k)
    done;
    { Storage.enc; dims = Array.copy coo.Coo.dims;
      lvls =
        [| Storage.Ldense { lsize = nbr };
           Storage.Lcompressed { pos; crd; unique = true } |];
      vals }

  let pack (enc : Encoding.t) coo =
    match enc.block with
    | None -> pack_plain enc coo
    | Some (bh, bw) -> pack_blocked enc ~bh ~bw coo
end

let bits = Array.map Int64.bits_of_float

(* Structural equality with values compared bit for bit. *)
let same_storage (a : Storage.t) (b : Storage.t) =
  { a with vals = [||] } = { b with vals = [||] } && bits a.vals = bits b.vals

(* --- Random COOs ------------------------------------------------------ *)

(* Mostly small extents (empty rows and columns are common), sometimes a
   zero extent, sometimes extents far beyond nnz (hypersparse levels,
   several radix passes per level). *)
let gen_extent =
  QCheck2.Gen.(
    frequency [ (1, pure 0); (6, int_range 1 9); (2, int_range 1000 300_000) ])

(* Values of mixed sign and magnitude, so the summation order of a
   duplicate group shows in the bits; signed zeros included. *)
let gen_val =
  QCheck2.Gen.(
    frequency
      [ (8, map2 Float.ldexp (float_range (-1.) 1.) (int_range (-40) 40));
        (1, pure 0.); (1, pure (-0.)) ])

(* A rank-[rank] COO whose elements repeat earlier coordinates about a
   third of the time. *)
let gen_coo rank =
  QCheck2.Gen.(
    let* dims = array_size (pure rank) gen_extent in
    let* n =
      if Array.mem 0 dims then pure 0
      else frequency [ (1, pure 0); (6, int_range 1 48) ]
    in
    let* picks =
      list_size (pure n)
        (triple (int_range 0 2) (int_range 0 (1 lsl 30))
           (array_size (pure rank) (int_range 0 (1 lsl 30))))
    in
    let* vals = array_size (pure n) gen_val in
    let crd = Array.init rank (fun _ -> Array.make n 0) in
    List.iteri
      (fun k (fresh, src, raw) ->
        Array.iteri
          (fun d c ->
            c.(k) <-
              (if fresh = 0 && k > 0 then c.(src mod k)
               else raw.(d) mod dims.(d)))
          crd)
      picks;
    pure (Coo.create ~dims ~crd ~vals))

let print_coo (c : Coo.t) =
  let dims = Array.to_list (Array.map string_of_int c.Coo.dims) in
  let elts =
    List.init (Coo.nnz c) (fun k ->
        Printf.sprintf "(%s)=%h"
          (String.concat ","
             (Array.to_list
                (Array.map (fun d -> string_of_int d.(k)) c.Coo.crd)))
          c.Coo.vals.(k))
  in
  Printf.sprintf "%s [%s]" (String.concat "x" dims) (String.concat " " elts)

let encodings =
  [ Encoding.csr (); Encoding.csc (); Encoding.dcsr (); Encoding.coo ();
    Encoding.bsr ~bh:2 ~bw:2 (); Encoding.bsr ~bh:2 ~bw:3 ();
    Encoding.bsr ~bh:4 ~bw:4 (); Encoding.csf 3 ]

let qcheck_pack =
  let gen =
    QCheck2.Gen.(
      let* enc = oneofl encodings in
      let* coo = gen_coo (Encoding.rank enc) in
      pure (enc, coo))
  in
  QCheck2.Test.make ~count:600 ~name:"pack = reference pack"
    ~print:(fun (enc, c) -> enc.Encoding.name ^ " " ^ print_coo c)
    gen
    (fun (enc, coo) -> same_storage (Storage.pack enc coo) (Ref.pack enc coo))

let qcheck_sorted_dedup =
  let gen =
    QCheck2.Gen.(
      let* rank = int_range 1 3 in
      let* perm = shuffle_a (Array.init rank Fun.id) in
      let* coo = gen_coo rank in
      pure (perm, coo))
  in
  QCheck2.Test.make ~count:400 ~name:"sorted_dedup = reference (any perm)"
    ~print:(fun (perm, c) ->
      Printf.sprintf "perm [%s] %s"
        (String.concat ";" (Array.to_list (Array.map string_of_int perm)))
        (print_coo c))
    gen
    (fun (perm, coo) ->
      let s = Coo.sorted_dedup ~perm coo in
      let coords, vals = Ref.sorted_dedup perm coo in
      s.Coo.dims = coo.Coo.dims
      && Ref.tuples s = coords
      && bits s.Coo.vals = bits vals)

(* Edge blocks of dimensions the block does not divide, with a
   duplicate group in the corner block whose sum depends on its order. *)
let test_blocked_edges () =
  let coo =
    Coo.of_triples ~rows:5 ~cols:7
      [ (4, 6, 1.); (0, 0, 2.); (4, 6, 0.25); (3, 3, -1.); (0, 5, 3.);
        (4, 6, 1e16); (2, 6, 4.) ]
  in
  List.iter
    (fun (bh, bw) ->
      let enc = Encoding.bsr ~bh ~bw () in
      Alcotest.(check bool)
        (Printf.sprintf "bsr%dx%d on 5x7" bh bw) true
        (same_storage (Storage.pack enc coo) (Ref.pack enc coo)))
    [ (2, 2); (2, 3); (4, 4) ]

(* --- Golden digests --------------------------------------------------- *)

(* Dims, then every element's coordinates in element order with its
   value's bits: any reordering of elements or RNG draws changes it. *)
let digest (c : Coo.t) =
  let b = Buffer.create 4096 in
  Array.iter (fun d -> Buffer.add_string b (string_of_int d ^ "x")) c.Coo.dims;
  Buffer.add_char b '|';
  Array.iteri
    (fun k v ->
      Array.iter
        (fun d -> Buffer.add_string b (string_of_int d.(k) ^ ","))
        c.Coo.crd;
      Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float v)))
    c.Coo.vals;
  Digest.to_hex (Digest.string (Buffer.contents b))

let generator_goldens =
  [ ("powerlaw:300,6", "48965ad2dea0637211deabd388bffc6f");
    ("uniform:200,1500", "653821ccff709fd2b24c00a29c05f2a3");
    ("banded:100,3", "d6a549903868344033db7b8dc4ac03ad");
    ("road:200,4@7", "b711c0fa5769710387ec7638035e6cdb");
    ("stencil2d:12", "4ffbad6094daa84b85a1a8fe8228919a");
    ("stencil3d:6", "2a978cd7e06eeab884532296fe08a939");
    ("fem:10,3,1", "a4be3ebb9fdc03aafbf998abe62c05bc");
    ("heavytail:300,2000,4", "8995937886952002663ef9d3348c226a");
    ("tensor3:10,12,14,800", "0dc4d8ca5fa974da1aeb8d1a39dbec31") ]

let test_generator_goldens () =
  List.iter
    (fun (spec, want) ->
      match Generate.of_spec spec with
      | Ok c -> Alcotest.(check string) spec want (digest c)
      | Error e -> Alcotest.fail e)
    generator_goldens

(* Duplicate base coordinates, a delta to a duplicated one, fresh
   coordinates (one given twice: the later value wins) and a delta to a
   unique one. *)
let test_update_golden () =
  let coo =
    Coo.of_triples ~rows:6 ~cols:5
      [ (0, 0, 1.); (2, 3, 2.5); (0, 0, 4.); (5, 4, 1.25); (2, 3, -1.);
        (1, 1, 3.); (0, 0, 0.5) ]
  in
  let u =
    { Request.Update.u_id = "u"; u_matrix = "m"; u_at_ms = 0.;
      u_deltas =
        [| (0, 0, 9.); (3, 2, 7.); (2, 3, 0.5); (3, 2, 8.); (4, 0, 6.);
           (1, 1, 2.); (5, 0, -3.) |] }
  in
  Alcotest.(check string) "update digest" "b1225c593b5d825623f7c4020d7c96a3"
    (digest (Request.Update.apply u coo))

let suite =
  [ QCheck_alcotest.to_alcotest qcheck_pack;
    QCheck_alcotest.to_alcotest qcheck_sorted_dedup;
    Alcotest.test_case "blocked edge blocks" `Quick test_blocked_edges;
    Alcotest.test_case "generator golden digests" `Quick
      test_generator_goldens;
    Alcotest.test_case "update golden digest" `Quick test_update_golden ]
