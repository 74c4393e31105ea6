(* Sparsification: lowering a Kernel over a sparse encoding to imperative IR
   (paper §2.4 and §3.1).

   The emitter walks the sparse operand's storage levels in iteration-graph
   order, generating one loop per level: dense levels become counted loops
   over the dimension extent, compressed levels become position loops over
   pos/crd segments, and the COO pair (compressed non-unique over singleton)
   becomes the while/dedup structure of Fig. 3a. Remaining dense-only
   dimensions (SpMM's k) become innermost counted loops.

   Reductions are accumulated in an scf.for iter_arg once the output address
   is fully resolved (Fig. 3b's a[i] += ... with the load/store hoisted out
   of the inner loop); otherwise the body updates memory directly (Fig. 9).

   When a position loop materialises a coordinate that indirectly indexes a
   dense operand — the iterate-and-locate co-iteration of Fig. 4c — the
   emitter calls the prefetch [hook] with the full semantic context
   (Access.site). ASaP is such a hook; the baseline passes [None]. *)

module Kernel = Asap_lang.Kernel
module Affine = Asap_lang.Affine
module Encoding = Asap_tensor.Encoding
open Asap_ir

(** How each buffer parameter of the generated function must be bound at
    run time, in parameter order. *)
type binding =
  | Bpos of int                 (* positions buffer of storage level l *)
  | Bcrd of int                 (* coordinates buffer of storage level l *)
  | Bvals                       (* values buffer of the sparse operand *)
  | Bdense of string            (* dense operand, by kernel operand name *)

type compiled = {
  fn : Ir.func;
  kernel : Kernel.t;
  buffers : (Ir.buffer * binding) list;
  scalars : (Ir.value * int) list;  (* scalar param -> iteration dim extent *)
  n_sites : int;                    (* indirect-access sites encountered *)
}

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

let compile ?(hook : Access.hook option) (k : Kernel.t) : compiled =
  let g = Iteration_graph.build k in
  let enc = k.Kernel.k_encoding in
  let r = Encoding.rank enc in
  let n = Kernel.n_dims k in
  let names = Affine.dim_names n in
  let b = Builder.create () in
  let idx_elem =
    match enc.Encoding.width with Encoding.W32 -> Ir.EIdx32 | Encoding.W64 -> Ir.EIdx64
  in
  let val_elem =
    match k.Kernel.k_body with Kernel.Mul_add -> Ir.EF64 | Kernel.And_or -> Ir.EI8
  in
  let sname = k.Kernel.k_sparse.Kernel.o_name in
  let bindings = ref [] in
  let add_buf name elem bind =
    let buffer = Builder.buf b name elem in
    bindings := (buffer, bind) :: !bindings;
    buffer
  in
  (* Buffer parameters: per-level pos/crd, sparse values, dense operands. *)
  let pos_bufs = Array.make r None and crd_bufs = Array.make r None in
  for l = 0 to r - 1 do
    let d = g.Iteration_graph.sparse_dims.(l) in
    if Encoding.has_pos enc.Encoding.levels.(l) then
      pos_bufs.(l) <-
        Some (add_buf (Printf.sprintf "%s%s_pos" sname names.(d)) idx_elem (Bpos l));
    if Encoding.has_crd enc.Encoding.levels.(l) then
      crd_bufs.(l) <-
        Some (add_buf (Printf.sprintf "%s%s_crd" sname names.(d)) idx_elem (Bcrd l))
  done;
  let vals_buf = add_buf (sname ^ "_vals") val_elem Bvals in
  let dense_buf (o : Kernel.operand) =
    add_buf o.Kernel.o_name val_elem (Bdense o.Kernel.o_name)
  in
  let ins_bufs = List.map (fun o -> (o, dense_buf o)) k.Kernel.k_dense_ins in
  let out_buf = dense_buf k.Kernel.k_out in
  (* Scalar parameters: the extent of every iteration dimension. *)
  let extents =
    Array.init n (fun d -> Builder.scalar_param b ("d_" ^ names.(d)) Ir.Index)
  in
  let scalars = Array.to_list (Array.mapi (fun d v -> (v, d)) extents) in

  (* ---- Prologue ---------------------------------------------------- *)
  let c0 = Builder.index b 0 and c1 = Builder.index b 1 in
  (* Row-major strides per dense operand, as SSA values. *)
  let strides_of (o : Kernel.operand) =
    let res = o.Kernel.o_map.Affine.results in
    let m = Array.length res in
    let strides = Array.make m c1 in
    for t = m - 2 downto 0 do
      strides.(t) <-
        (if strides.(t + 1) == c1 then extents.(res.(t + 1))
         else Builder.imul b strides.(t + 1) extents.(res.(t + 1)))
    done;
    strides
  in
  let all_ops = (k.Kernel.k_out, out_buf) :: ins_bufs in
  let strides =
    List.map (fun (o, buffer) -> (o.Kernel.o_name, (o, buffer, strides_of o))) all_ops
  in
  (* Blocked encodings tile the coordinate space: level [l] indexes block
     coordinates, so node counts divide the extent by the block side
     (ceiling — edge blocks are padded). *)
  let block_side l =
    match enc.Encoding.block with
    | None -> 1
    | Some (bh, bw) -> if l = 0 then bh else bw
  in
  let ceildiv_extent v side =
    if side = 1 then v
    else
      Builder.ibin b Ir.Idiv
        (Builder.iadd b v (Builder.index b (side - 1)))
        (Builder.index b side)
  in
  (* Semantic crd-buffer bounds (paper §3.2.2): node count per level via the
     recursive chain of position-buffer loads, hoisted into the prologue.
     Only computed when a hook wants them. For blocked levels the recursion
     runs in block units: the dense count is ceil(extent / side) and the
     resulting bound is a block index — the hook rescales its lookahead by
     bh*bw ({!Access.site.s_step_elems}). *)
  let semantic_bounds = Array.make r None in
  if hook <> None then begin
    let cnt = ref None in
    (* None encodes the root's single segment (count known = 1). *)
    for l = 0 to r - 1 do
      let d = g.Iteration_graph.sparse_dims.(l) in
      (match enc.Encoding.levels.(l) with
       | Encoding.Dense ->
         let here = ceildiv_extent extents.(d) (block_side l) in
         cnt :=
           Some
             (match !cnt with
              | None -> here
              | Some c -> Builder.imul b c here)
       | Encoding.Compressed _ ->
         let pos = Option.get pos_bufs.(l) in
         let idx = match !cnt with None -> c1 | Some c -> c in
         cnt := Some (Builder.load b ~name:(pos.Ir.bname ^ "_end") pos idx)
       | Encoding.Singleton -> ());
      match (enc.Encoding.levels.(l), !cnt) with
      | (Encoding.Compressed _ | Encoding.Singleton), Some c ->
        semantic_bounds.(l) <- Some (Builder.isub b c c1)
      | _ -> ()
    done
  end;

  (* ---- State ------------------------------------------------------- *)
  let coords = Array.make n None in
  let n_sites = ref 0 in
  let dense_only = Iteration_graph.dense_only_dims g in
  (* Work per sparse step: dense-only loops (SDDMM's and SpMM's k) run in
     full below every sparse iteration, so one step performs the product
     of their extents in element updates. Hooks divide their lookahead by
     it — a step that runs d_k times longer needs a d_k-times shorter
     head start. Hoisted here into the prologue with the §3.2.2 bounds. *)
  let inner_extent =
    if hook = None then None
    else
      List.fold_left
        (fun acc d ->
          match acc with
          | None -> Some extents.(d)
          | Some c -> Some (Builder.imul b c extents.(d)))
        None dense_only
  in
  let out_map = k.Kernel.k_out.Kernel.o_map in
  let out_resolved () =
    Array.for_all (fun d -> coords.(d) <> None) out_map.Affine.results
  in
  let operand_address (o : Kernel.operand) strides_arr =
    let res = o.Kernel.o_map.Affine.results in
    let m = Array.length res in
    let term t =
      let c = Option.get coords.(res.(t)) in
      if t = m - 1 then c else Builder.imul b c strides_arr.(t)
    in
    let addr = ref (term 0) in
    for t = 1 to m - 1 do
      addr := Builder.iadd b !addr (term t)
    done;
    !addr
  in
  let out_address () =
    let _, _, s = List.assoc k.Kernel.k_out.Kernel.o_name strides in
    operand_address k.Kernel.k_out s
  in
  let acc_ty =
    match k.Kernel.k_body with Kernel.Mul_add -> Ir.F64 | Kernel.And_or -> Ir.I64
  in
  let combine_mul x y =
    match k.Kernel.k_body with
    | Kernel.Mul_add -> Builder.fmul b x y
    | Kernel.And_or -> Builder.ibin b Ir.Iand x y
  in
  let combine_add x y =
    match k.Kernel.k_body with
    | Kernel.Mul_add -> Builder.fadd b x y
    | Kernel.And_or -> Builder.ibin b Ir.Ior x y
  in

  (* Prefetch-site construction for a position loop that resolves dimension
     [d] at level [l] with iterator [iv] over [lo, hi). The target's base
     covers the operand's other already-resolved dimensions (e.g. i*Nj for
     a(i,j) at a j-resolving site), so the lookahead prefetch lands on the
     right row. *)
  let site_base (o : Kernel.operand) strides_arr ~skip =
    let res = o.Kernel.o_map.Affine.results in
    let base = ref None in
    Array.iteri
      (fun t d' ->
        if t <> skip then
          match coords.(d') with
          | None -> ()
          | Some coord ->
            let term =
              if strides_arr.(t) == c1 then coord
              else Builder.imul b coord strides_arr.(t)
            in
            base :=
              Some
                (match !base with
                 | None -> term
                 | Some acc_addr -> Builder.iadd b acc_addr term))
      res;
    !base
  in
  let site_targets d =
    let target_of ~write (o : Kernel.operand) buffer =
      match Affine.result_of_dim o.Kernel.o_map d with
      | None -> None
      | Some t ->
        let _, _, s = List.assoc o.Kernel.o_name strides in
        let scale = if t = Array.length s - 1 then None else Some s.(t) in
        Some
          { Access.t_buf = buffer; t_scale = scale;
            t_base = site_base o s ~skip:t; t_write = write }
    in
    let ins_targets =
      List.filter_map
        (fun (o, buffer) -> target_of ~write:false o buffer)
        ins_bufs
    in
    let out_target =
      Option.to_list (target_of ~write:true k.Kernel.k_out out_buf)
    in
    ins_targets @ out_target
  in
  let fire_hook ~l ~d ~innermost ~iv ~lo ~hi =
    match hook with
    | None -> ()
    | Some h ->
      let targets = site_targets d in
      if targets <> [] then begin
        incr n_sites;
        h b
          { Access.s_level = l; s_dim = d; s_innermost = innermost;
            s_crd = Option.get crd_bufs.(l); s_iv = iv; s_lo = lo; s_hi = hi;
            s_bound = Option.get semantic_bounds.(l); s_step_elems = 1;
            s_inner_extent = inner_extent; s_targets = targets }
      end
  in

  (* ---- Loop nest --------------------------------------------------- *)
  (* A loop that threads the reduction accumulator: if one is open it is
     carried through; if the loop iterates a reduction dimension and the
     output address is already resolved, a fresh accumulator is opened
     (load before, store after). [inside] receives the induction variable
     and the accumulator state and returns the updated accumulator. *)
  let emit_loop ~tag name lo hi ~dim acc inside =
    match acc with
    | Some (a : Ir.value) ->
      let results =
        Builder.for_ b ~tag ~carried:[ ("acc", a.Ir.vty, a) ] name lo hi
          (fun iv args ->
            match inside iv (Some (List.hd args)) with
            | Some a' -> [ a' ]
            | None -> assert false)
      in
      Some (List.hd results)
    | None ->
      let opens =
        k.Kernel.k_iterators.(dim) = Kernel.Reduction && out_resolved ()
      in
      if opens then begin
        let addr = out_address () in
        let a0 = Builder.load b ~name:"acc0" out_buf addr in
        let a0 =
          if a0.Ir.vty = acc_ty then a0 else Builder.cast b acc_ty a0
        in
        let results =
          Builder.for_ b ~tag ~carried:[ ("acc", acc_ty, a0) ] name lo hi
            (fun iv args ->
              match inside iv (Some (List.hd args)) with
              | Some a' -> [ a' ]
              | None -> assert false)
        in
        Builder.store b out_buf addr (List.hd results);
        None
      end
      else begin
        Builder.for0 b ~tag name lo hi (fun iv ->
            match inside iv None with
            | None -> ()
            | Some _ -> assert false);
        None
      end
  in

  (* Partial address of operand [o]: the sum of coord*stride terms whose
     dimension is already resolved. Emitted before the innermost dense
     loops, hoisting the loop-invariant address arithmetic LICM would. *)
  let partial_address (o : Kernel.operand) strides_arr =
    let res = o.Kernel.o_map.Affine.results in
    let base = ref None in
    Array.iteri
      (fun t d ->
        match coords.(d) with
        | None -> ()
        | Some coord ->
          let term =
            if strides_arr.(t) == c1 then coord
            else Builder.imul b coord strides_arr.(t)
          in
          base :=
            Some
              (match !base with
               | None -> term
               | Some acc_addr -> Builder.iadd b acc_addr term))
      res;
    !base
  in
  (* The scalar body: [sv] and the address bases are hoisted to the point
     where the sparse levels are fully resolved. *)
  let emit_body ~sv ~bases acc =
    let dense_term (o : Kernel.operand) strides_arr base =
      let res = o.Kernel.o_map.Affine.results in
      let addr = ref base in
      Array.iteri
        (fun t d ->
          if List.mem d dense_only then
            match coords.(d) with
            | None -> ()
            | Some coord ->
              let term =
                if strides_arr.(t) == c1 then coord
                else Builder.imul b coord strides_arr.(t)
              in
              addr :=
                Some
                  (match !addr with
                   | None -> term
                   | Some a -> Builder.iadd b a term))
        res;
      Option.get !addr
    in
    let prod =
      List.fold_left
        (fun p (o, buffer) ->
          let _, _, s = List.assoc o.Kernel.o_name strides in
          let base = List.assoc o.Kernel.o_name bases in
          let addr = dense_term o s base in
          let dv = Builder.load b ~name:(o.Kernel.o_name ^ "val") buffer addr in
          combine_mul p dv)
        sv ins_bufs
    in
    match acc with
    | Some a -> Some (combine_add a prod)
    | None ->
      let _, _, s = List.assoc k.Kernel.k_out.Kernel.o_name strides in
      let base = List.assoc k.Kernel.k_out.Kernel.o_name bases in
      let addr = dense_term k.Kernel.k_out s base in
      let cur = Builder.load b ~name:"outv" out_buf addr in
      let sum = combine_add cur prod in
      Builder.store b out_buf addr sum;
      None
  in

  (* Innermost dense-only dimensions (e.g. SpMM's k). *)
  let rec emit_dense_dims dims ~sv ~bases acc =
    match dims with
    | [] -> emit_body ~sv ~bases acc
    | d :: rest ->
      emit_loop ~tag:("dense dim " ^ names.(d)) names.(d) c0 extents.(d)
        ~dim:d acc (fun iv acc' ->
          coords.(d) <- Some iv;
          let res = emit_dense_dims rest ~sv ~bases acc' in
          coords.(d) <- None;
          res)
  in
  (* At the leaf of the sparse levels: hoist the values load and the
     resolved part of every operand address before the dense loops. *)
  let emit_leaf leaf acc =
    let sv = Builder.load b ~name:"bval" vals_buf leaf in
    (* The output's base is only needed when no accumulator carries the
       reduction (otherwise the load/store pair was hoisted already). *)
    let ops =
      match acc with
      | Some _ -> ins_bufs
      | None -> (k.Kernel.k_out, out_buf) :: ins_bufs
    in
    let bases =
      List.map
        (fun (o, (_ : Ir.buffer)) ->
          let _, _, s = List.assoc o.Kernel.o_name strides in
          (o.Kernel.o_name, partial_address o s))
        ops
    in
    emit_dense_dims dense_only ~sv ~bases acc
  in

  (* node: index of the current tree node at level [l]; [`Zero] at the root
     avoids emitting dead arithmetic for the common top-level case. *)
  let node_value = function `Zero -> c0 | `V v -> v in
  let rec emit_level l node acc =
    if l = r then emit_leaf (node_value node) acc
    else
      let d = g.Iteration_graph.sparse_dims.(l) in
      let innermost = l = r - 1 && dense_only = [] in
      match enc.Encoding.levels.(l) with
      | Encoding.Dense ->
        let lsize = extents.(d) in
        emit_loop ~tag:("dense level " ^ names.(d)) names.(d) c0 lsize ~dim:d
          acc (fun iv acc' ->
            coords.(d) <- Some iv;
            let node' =
              match node with
              | `Zero -> `V iv
              | `V v -> `V (Builder.iadd b (Builder.imul b v lsize) iv)
            in
            let res = emit_level (l + 1) node' acc' in
            coords.(d) <- None;
            res)
      | Encoding.Compressed { unique = true } ->
        let pos = Option.get pos_bufs.(l) and crd = Option.get crd_bufs.(l) in
        let lo, hi =
          match node with
          | `Zero ->
            (Builder.load b ~name:"lo" pos c0, Builder.load b ~name:"hi" pos c1)
          | `V v ->
            let v1 = Builder.iadd b v c1 in
            (Builder.load b ~name:"lo" pos v, Builder.load b ~name:"hi" pos v1)
        in
        let iv_name = names.(d) ^ names.(d) in
        emit_loop ~tag:("compressed level " ^ names.(d)) iv_name lo hi ~dim:d
          acc (fun iv acc' ->
            let coord = Builder.load b ~name:names.(d) crd iv in
            coords.(d) <- Some coord;
            fire_hook ~l ~d ~innermost ~iv ~lo ~hi;
            let res = emit_level (l + 1) (`V iv) acc' in
            coords.(d) <- None;
            res)
      | Encoding.Compressed { unique = false } ->
        (* The COO pair: a while loop over duplicate-coordinate segments
           (Fig. 3a), fused with the singleton level below. *)
        if l <> 0 then unsupported "non-unique compressed below the top level";
        if l + 1 >= r || enc.Encoding.levels.(l + 1) <> Encoding.Singleton then
          unsupported "non-unique compressed must be followed by singleton";
        if acc <> None then unsupported "open accumulator above a COO segment";
        let pos = Option.get pos_bufs.(l) and crd = Option.get crd_bufs.(l) in
        let lo = Builder.load b ~name:"lo" pos c0 in
        let hi = Builder.load b ~name:"hi" pos c1 in
        let hi_m1 = Builder.isub b hi c1 in
        let (_ : Ir.value list) =
          Builder.while_ b ~tag:("coo segments " ^ names.(d))
            [ (names.(d) ^ names.(d), Ir.Index, lo) ]
            (fun args ->
              let ii = List.hd args in
              Builder.icmp b Ir.Ult ii hi)
            (fun args ->
              let ii = List.hd args in
              let coord = Builder.load b ~name:names.(d) crd ii in
              coords.(d) <- Some coord;
              (* Deduplicate: scan forward while the coordinate repeats.
                 The clamp to hi-1 makes the conjunction safe without
                 short-circuit evaluation. *)
              let se0 = Builder.iadd b ii c1 in
              let se_final =
                Builder.while_ b ~tag:"dedup"
                  [ ("seg_end", Ir.Index, se0) ]
                  (fun args' ->
                    let se = List.hd args' in
                    let in_range = Builder.icmp b Ir.Ult se hi in
                    let safe = Builder.imin b se hi_m1 in
                    let v = Builder.load b ~name:"dup" crd safe in
                    let same = Builder.icmp b Ir.Eq v coord in
                    Builder.ibin b Ir.Iand in_range same)
                  (fun args' -> [ Builder.iadd b (List.hd args') c1 ])
                |> List.hd
              in
              (* Singleton level: iterate the segment's elements. *)
              let d' = g.Iteration_graph.sparse_dims.(l + 1) in
              let crd' = Option.get crd_bufs.(l + 1) in
              let innermost' = l + 1 = r - 1 && dense_only = [] in
              let iv_name = names.(d') ^ names.(d') in
              let (_ : Ir.value option) =
                emit_loop ~tag:("coo elements " ^ names.(d')) iv_name ii
                  se_final ~dim:d' None (fun jj acc' ->
                    let coord' = Builder.load b ~name:names.(d') crd' jj in
                    coords.(d') <- Some coord';
                    fire_hook ~l:(l + 1) ~d:d' ~innermost:innermost' ~iv:jj
                      ~lo:ii ~hi:se_final;
                    let res = emit_level (l + 2) (`V jj) acc' in
                    coords.(d') <- None;
                    res)
              in
              coords.(d) <- None;
              [ se_final ])
        in
        None
      | Encoding.Singleton ->
        (* Standalone singleton (outside the COO pair): exactly one child,
           coordinate read off the crd buffer. *)
        let crd = Option.get crd_bufs.(l) in
        let coord = Builder.load b ~name:names.(d) crd (node_value node) in
        coords.(d) <- Some coord;
        let res = emit_level (l + 1) node acc in
        coords.(d) <- None;
        res
  in
  (* ---- Blocked loop nest ------------------------------------------- *)
  (* BSR-style encodings: the two storage levels index block coordinates
     (dense block rows over compressed block columns), and each stored
     block expands through two micro-loops clamped to the matrix edge.
     Element coordinates are reconstructed affinely (i = ib*bh + r,
     j = jb*bw + c) and the leaf value index is p*bh*bw + r*bw + c.
     Prefetch sites fire at the block-column position loop: the lookahead
     coordinate is a block column, so target scales carry an extra *bw
     and the hook rescales its distance by bh*bw (s_step_elems). *)
  let site_targets_blocked d cbw =
    List.map
      (fun (t : Access.target) ->
        let scale =
          match t.Access.t_scale with
          | None -> cbw
          | Some s -> Builder.imul b s cbw
        in
        { t with Access.t_scale = Some scale })
      (site_targets d)
  in
  let fire_hook_blocked ~l ~d ~iv ~lo ~hi ~bh ~bw ~cbw =
    match hook with
    | None -> ()
    | Some h ->
      let targets = site_targets_blocked d cbw in
      if targets <> [] then begin
        incr n_sites;
        h b
          { Access.s_level = l; s_dim = d; s_innermost = false;
            s_crd = Option.get crd_bufs.(l); s_iv = iv; s_lo = lo; s_hi = hi;
            s_bound = Option.get semantic_bounds.(l);
            s_step_elems = bh * bw; s_inner_extent = inner_extent;
            s_targets = targets }
      end
  in
  let emit_blocked ~bh ~bw =
    let d0 = g.Iteration_graph.sparse_dims.(0)
    and d1 = g.Iteration_graph.sparse_dims.(1) in
    let cbh = Builder.index b bh and cbw = Builder.index b bw in
    let cbe = Builder.index b (bh * bw) in
    let pos = Option.get pos_bufs.(1) and crd = Option.get crd_bufs.(1) in
    let nbr = ceildiv_extent extents.(d0) bh in
    let (_ : Ir.value option) =
      emit_loop ~tag:("block rows " ^ names.(d0)) ("b" ^ names.(d0)) c0 nbr
        ~dim:d0 None (fun ib acc0 ->
          let i0 = Builder.imul b ib cbh in
          let rext = Builder.imin b cbh (Builder.isub b extents.(d0) i0) in
          let ib1 = Builder.iadd b ib c1 in
          let lo = Builder.load b ~name:"lo" pos ib in
          let hi = Builder.load b ~name:"hi" pos ib1 in
          emit_loop ~tag:("block cols " ^ names.(d1))
            (names.(d1) ^ names.(d1)) lo hi ~dim:d1 acc0 (fun p accp ->
              let jb = Builder.load b ~name:("b" ^ names.(d1)) crd p in
              fire_hook_blocked ~l:1 ~d:d1 ~iv:p ~lo ~hi ~bh ~bw ~cbw;
              let j0 = Builder.imul b jb cbw in
              let cext =
                Builder.imin b cbw (Builder.isub b extents.(d1) j0)
              in
              let vbase = Builder.imul b p cbe in
              emit_loop ~tag:"block micro rows" (names.(d0) ^ "b") c0 rext
                ~dim:d0 accp (fun rr accr ->
                  let i = Builder.iadd b i0 rr in
                  coords.(d0) <- Some i;
                  let rowb = Builder.iadd b vbase (Builder.imul b rr cbw) in
                  let res =
                    emit_loop ~tag:"block micro cols" (names.(d1) ^ "b") c0
                      cext ~dim:d1 accr (fun cc accc ->
                        let j = Builder.iadd b j0 cc in
                        coords.(d1) <- Some j;
                        let leaf = Builder.iadd b rowb cc in
                        let res = emit_leaf leaf accc in
                        coords.(d1) <- None;
                        res)
                  in
                  coords.(d0) <- None;
                  res)))
    in
    ()
  in
  (match enc.Encoding.block with
   | Some (bh, bw) ->
     if r <> 2 then unsupported "blocked encodings must be rank-2";
     emit_blocked ~bh ~bw
   | None ->
     let (_ : Ir.value option) = emit_level 0 `Zero None in
     ());
  let fn =
    Builder.finish b
      (Printf.sprintf "%s_%s" k.Kernel.k_name
         (String.lowercase_ascii enc.Encoding.name))
  in
  { fn; kernel = k; buffers = List.rev !bindings; scalars;
    n_sites = !n_sites }
