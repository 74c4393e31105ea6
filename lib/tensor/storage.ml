(* Segmented buffer storage of coordinate hierarchy trees (paper §2.3).

   [pack] serialises a COO tensor into per-level buffers according to an
   encoding: dense levels store nothing, compressed levels a pos/crd pair,
   singleton levels a crd buffer. Node identity at level l is the index of
   the node among all level-l nodes, which makes the child relation purely
   arithmetic: dense children are [node * size + v], compressed children are
   the positions [pos[node], pos[node+1]), singleton children are [node]. *)

type level_storage =
  | Ldense of { lsize : int }
  | Lcompressed of { pos : int array; crd : int array; unique : bool }
  | Lsingleton of { crd : int array }

type t = {
  enc : Encoding.t;
  dims : int array;
  lvls : level_storage array;
  vals : float array;
}

(* [pack_plain enc coo] sorts, deduplicates and serialises [coo].

   The construction sweeps levels top-down over the sorted element
   range, maintaining the current segmentation: the nodes of the
   previous level partition [0, n) into consecutive runs, node [p]
   owning elements [bnd.(p), bnd.(p+1)). *)
let pack_plain (enc : Encoding.t) (coo : Coo.t) : t =
  let sorted = Coo.sorted_dedup ~perm:enc.dim_to_lvl coo in
  let n = Coo.nnz sorted in
  let rank = Encoding.rank enc in
  (* One node per element: the segmentation below singleton and
     non-unique levels. *)
  let per_element () = Array.init (n + 1) Fun.id in
  let bnd = ref [| 0; n |] in
  let lvls = Array.make rank (Ldense { lsize = 0 }) in
  for l = 0 to rank - 1 do
    let key = sorted.crd.(enc.dim_to_lvl.(l)) in
    let parents = !bnd in
    let np = Array.length parents - 1 in
    (match enc.levels.(l) with
     | Encoding.Dense ->
       let lsize = coo.dims.(enc.dim_to_lvl.(l)) in
       let out = Array.make ((np * lsize) + 1) 0 in
       for p = 0 to np - 1 do
         let i = ref parents.(p) and e = parents.(p + 1) in
         for v = 0 to lsize - 1 do
           while !i < e && key.(!i) = v do incr i done;
           out.((p * lsize) + v + 1) <- !i
         done;
         assert (!i = e)
       done;
       lvls.(l) <- Ldense { lsize };
       bnd := out
     | Encoding.Compressed { unique = true } ->
       (* At most one node per element: build into n-sized scratch arrays
          and trim. *)
       let pos = Array.make (np + 1) 0 in
       let crd = Array.make n 0 in
       let out = Array.make (n + 1) 0 in
       let count = ref 0 in
       for p = 0 to np - 1 do
         let i = ref parents.(p) and e = parents.(p + 1) in
         while !i < e do
           let v = key.(!i) in
           while !i < e && key.(!i) = v do incr i done;
           crd.(!count) <- v;
           incr count;
           out.(!count) <- !i
         done;
         pos.(p + 1) <- !count
       done;
       let trim a len = if len = Array.length a then a else Array.sub a 0 len in
       lvls.(l) <- Lcompressed { pos; crd = trim crd !count; unique = true };
       bnd := trim out (!count + 1)
     | Encoding.Compressed { unique = false } ->
       (* One crd entry and one child per element: duplicate parent
          coordinates are retained, as in COO's top level. A parent's
          positions are its element run. *)
       lvls.(l) <-
         Lcompressed
           { pos = parents; crd = Array.copy key; unique = false };
       bnd := per_element ()
     | Encoding.Singleton ->
       lvls.(l) <- Lsingleton { crd = Array.copy key };
       bnd := per_element ())
  done;
  (* Leaf values: one per leaf node; dense leaf levels imply explicit
     zeros for absent coordinates. *)
  let leaves = !bnd in
  let vals = Array.make (Array.length leaves - 1) 0. in
  for node = 0 to Array.length vals - 1 do
    let s = leaves.(node) and e = leaves.(node + 1) in
    assert (e - s <= 1);
    if e > s then vals.(node) <- sorted.vals.(s)
  done;
  { enc; dims = Array.copy coo.dims; lvls; vals }

(* [pack_blocked enc ~bh ~bw coo] serialises a rank-2 tensor into block
   storage: the pos/crd pair indexes the bh x bw *block* coordinate
   space (dense block rows over compressed block columns), and each
   stored block expands to bh*bw row-major values with explicit zeros
   for the absent coordinates. Edge blocks of non-divisible dimensions
   are zero-padded here and clamped by consumers ({!iter}, the emitter's
   blocked micro-loops).

   Elements are sorted and deduplicated by (block row, block column,
   offset in block) — a bijection of (i, j), so the duplicate groups and
   their sums are those of a row-major sort — which lists the stored
   blocks in order, each as one run. *)
let pack_blocked (enc : Encoding.t) ~bh ~bw (coo : Coo.t) : t =
  let ci = coo.crd.(0) and cj = coo.crd.(1) in
  let nbr = (coo.dims.(0) + bh - 1) / bh
  and nbc = (coo.dims.(1) + bw - 1) / bw
  and be = bh * bw in
  let sorted =
    Coo.sorted_dedup
      { Coo.dims = [| nbr; nbc; be |];
        crd =
          [| Array.map (fun i -> i / bh) ci;
             Array.map (fun j -> j / bw) cj;
             Array.mapi (fun k i -> ((i mod bh) * bw) + (cj.(k) mod bw)) ci |];
        vals = coo.vals }
  in
  let n = Coo.nnz sorted in
  let ib = sorted.crd.(0) and jb = sorted.crd.(1) and off = sorted.crd.(2) in
  let starts k = k = 0 || ib.(k) <> ib.(k - 1) || jb.(k) <> jb.(k - 1) in
  let nb = ref 0 in
  for k = 0 to n - 1 do if starts k then incr nb done;
  let pos = Array.make (nbr + 1) 0 in
  let crd = Array.make !nb 0 in
  let vals = Array.make (!nb * be) 0. in
  let b = ref (-1) in
  for k = 0 to n - 1 do
    if starts k then begin
      incr b;
      crd.(!b) <- jb.(k);
      pos.(ib.(k) + 1) <- pos.(ib.(k) + 1) + 1
    end;
    vals.((!b * be) + off.(k)) <- sorted.vals.(k)
  done;
  for r = 1 to nbr do pos.(r) <- pos.(r) + pos.(r - 1) done;
  { enc; dims = Array.copy coo.dims;
    lvls =
      [| Ldense { lsize = nbr }; Lcompressed { pos; crd; unique = true } |];
    vals }

let pack (enc : Encoding.t) (coo : Coo.t) : t =
  if Encoding.rank enc <> Coo.rank coo then
    invalid_arg "Storage.pack: encoding rank does not match tensor rank";
  match enc.Encoding.block with
  | None -> pack_plain enc coo
  | Some (bh, bw) -> pack_blocked enc ~bh ~bw coo

(* [iter_shared f t] is {!iter} passing one coordinate buffer that is
   overwritten between calls. *)
let iter_shared f (t : t) =
  let rank = Encoding.rank t.enc in
  let coord = Array.make rank 0 in
  match t.enc.Encoding.block with
  | Some (bh, bw) ->
    (match t.lvls with
     | [| Ldense { lsize }; Lcompressed { pos; crd; _ } |] ->
       let be = bh * bw in
       for ib = 0 to lsize - 1 do
         for p = pos.(ib) to pos.(ib + 1) - 1 do
           let jb = crd.(p) in
           for r = 0 to bh - 1 do
             let i = (ib * bh) + r in
             if i < t.dims.(0) then
               for c = 0 to bw - 1 do
                 let j = (jb * bw) + c in
                 if j < t.dims.(1) then begin
                   coord.(0) <- i;
                   coord.(1) <- j;
                   f coord t.vals.((p * be) + (r * bw) + c)
                 end
               done
           done
         done
       done
     | _ -> invalid_arg "Storage.iter: malformed blocked storage")
  | None ->
    let rec go l node =
      if l = rank then f coord t.vals.(node)
      else
        let dim = t.enc.dim_to_lvl.(l) in
        match t.lvls.(l) with
        | Ldense { lsize } ->
          for v = 0 to lsize - 1 do
            coord.(dim) <- v;
            go (l + 1) ((node * lsize) + v)
          done
        | Lcompressed { pos; crd; _ } ->
          for p = pos.(node) to pos.(node + 1) - 1 do
            coord.(dim) <- crd.(p);
            go (l + 1) p
          done
        | Lsingleton { crd } ->
          coord.(dim) <- crd.(node);
          go (l + 1) node
    in
    go 0 0

(** [iter f t] visits every stored leaf (including explicit zeros of dense
    leaf levels) with its dimension-order coordinates. Blocked storage
    visits every in-bounds cell of every stored block. *)
let iter f t = iter_shared (fun c v -> f (Array.copy c) v) t

(** [to_coo t] recovers the COO form, dropping explicit zeros: one walk
    counts the non-zeros, a second writes them into the per-dimension
    coordinate arrays. *)
let to_coo (t : t) : Coo.t =
  let n = ref 0 in
  iter_shared (fun _ v -> if v <> 0. then incr n) t;
  let crd = Array.map (fun _ -> Array.make !n 0) t.dims in
  let vals = Array.make !n 0. in
  let k = ref 0 in
  iter_shared
    (fun c v ->
      if v <> 0. then begin
        Array.iteri (fun d x -> crd.(d).(!k) <- x) c;
        vals.(!k) <- v;
        incr k
      end)
    t;
  { Coo.dims = Array.copy t.dims; crd; vals }

(** [convert enc t] re-packs [t] under a different encoding. *)
let convert enc t = pack enc (to_coo t)

let pos_buf t l =
  match t.lvls.(l) with
  | Lcompressed { pos; _ } -> Some pos
  | Ldense _ | Lsingleton _ -> None

let crd_buf t l =
  match t.lvls.(l) with
  | Lcompressed { crd; _ } | Lsingleton { crd } -> Some crd
  | Ldense _ -> None

(** Total bytes of the serialised form (pos + crd at the encoding's index
    width, values as f64), mirroring the paper's footprint accounting. *)
let footprint_bytes t =
  let ib = match t.enc.width with Encoding.W32 -> 4 | Encoding.W64 -> 8 in
  let acc = ref (Array.length t.vals * 8) in
  Array.iter
    (function
      | Ldense _ -> ()
      | Lcompressed { pos; crd; _ } ->
        acc := !acc + (ib * (Array.length pos + Array.length crd))
      | Lsingleton { crd } -> acc := !acc + (ib * Array.length crd))
    t.lvls;
  !acc

(** [describe t] is a one-line summary used by the CLI and examples. *)
let describe t =
  let lvl = function
    | Ldense { lsize } -> Printf.sprintf "dense(%d)" lsize
    | Lcompressed { pos; crd; unique } ->
      Printf.sprintf "compressed%s(pos:%d, crd:%d)"
        (if unique then "" else "-nu")
        (Array.length pos) (Array.length crd)
    | Lsingleton { crd } -> Printf.sprintf "singleton(crd:%d)" (Array.length crd)
  in
  Printf.sprintf "%s %s [%s] vals:%d" t.enc.name
    (String.concat "x" (Array.to_list (Array.map string_of_int t.dims)))
    (String.concat ", " (Array.to_list (Array.map lvl t.lvls)))
    (Array.length t.vals)
