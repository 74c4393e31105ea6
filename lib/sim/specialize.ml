(* Ahead-of-time kernel specialization (ROADMAP item 3).

   [apply] takes the post-pipeline [Ir.func] plus the runtime facts that
   are constant for a given built artefact — the scalar parameter values
   (dimension extents, dense inner extents, BSR block shapes in block
   units) and the tuned prefetch distance — and rewrites the function
   into a shape-specialized form:

   - scalar parameters are materialised as entry-block constants and
     every use constant-folded ({!Asap_ir.Fold}), so the ASaP hook's
     entry sequence [max 1 (dist / max 1 inner_extent)] collapses to a
     literal and address arithmetic against known extents folds away;
   - loops whose trip count becomes a known small constant — the dense
     inner loops of SpMM/SDDMM, the bh x bw BSR block loops — are fully
     unrolled, removing the two per-iteration loop-overhead events, the
     entry guard, and the exit branch-mispredict bubble the timing model
     charges per loop entry;
   - prefetch hooks are stripped when the tuned distance resolves to 0
     (a distance-0 hook only burns issue slots);
   - dead pure lets (the folded distance arithmetic, unused induction
     constants) are swept by a fixpoint DCE that keeps anything that can
     fault or touch memory (loads, unfolded div/rem).

   The specialized function binds the same scalar parameters as the
   generic one (callers' argument lists are unchanged; the bound values
   are simply no longer read) and is re-verified. Its virtual timing
   legitimately differs from the generic function — that is the point —
   but is identical across both engines for the same specialized
   IR, which the differential suite enforces. The bytecode backend
   bakes the literal loop bounds this pass leaves behind into its loop
   table ({!Bytecode.compile}): bound immediates and known-taken entry
   tests cut host dispatch work while issuing exactly the same timing
   events. *)

open Asap_ir

(* --- Facts ----------------------------------------------------------- *)

type facts = {
  f_scalars : int list;    (* values for the Pscalar params, in order *)
  f_distance : int option; (* tuned prefetch distance; [Some 0] strips *)
}

(* Max constant trip count to fully unroll. BSR blocks are at most a cache line (8 f64) per side in practice and
   the dense SpMM/SDDMM inner extents the suite uses are 8–16; 32 covers
   them all while keeping worst-case code growth bounded. *)
let unroll_cap = 32

let make ?distance ~scalars () = { f_scalars = scalars; f_distance = distance }

type stats = {
  sp_params : int;             (* scalar params materialised *)
  sp_folded : int;             (* constants folded (both passes) *)
  sp_clamps : int;             (* block edge clamps eliminated *)
  sp_unrolled : int;           (* loops fully unrolled *)
  sp_iterations : int;         (* iterations expanded by the unroller *)
  sp_dce : int;                (* dead pure lets removed *)
  sp_prefetch_stripped : int;  (* prefetch hooks stripped *)
}

(* --- Specialization fingerprint -------------------------------------- *)

(* The cache key for a specialized artefact: everything the specialized
   stream depends on. Kernel and format fix the loop structure, the
   canonical pipeline spec fixes the pass tail, the tuned config fixes
   the folded distance, and the shape class fixes every materialised
   extent. Streaming updates that change the shape class therefore miss
   this key and rebuild. *)
let fingerprint ~kernel ~format ~pipeline ~tuned ~shape =
  let dims =
    String.concat "x" (List.map string_of_int (Array.to_list shape))
  in
  String.concat "|" [ "spec"; kernel; format; pipeline; tuned; dims ]

let const_of_ty vty k =
  match vty with
  | Ir.Index -> Ir.Cidx k
  | Ir.I64 -> Ir.Ci64 k
  | Ir.I1 -> Ir.Cbool (k <> 0)
  | Ir.F64 -> invalid_arg "Specialize: float induction variable"

(* --- Block-clamp elimination ----------------------------------------- *)

(* The blocked (BSR) emitter guards each micro loop with an edge clamp:
   rext = min(bh, rows - ib*bh) and cext = min(bw, cols - jb*bw), so the
   last partial block row/column iterates short. Plain folding cannot
   remove these — they depend on the block index — but once the extents
   are materialised the clamp is provably the block side whenever the
   side divides the extent: the row clamp's block index is the enclosing
   loop's induction variable with constant range [0, rows/bh), and the
   column clamp's is a block coordinate loaded from packed storage,
   which {!Asap_tensor.Storage.pack} keeps below cols/bw by construction
   (the same well-formedness the generic program's value space already
   relies on). With the clamps gone the micro loops get literal trip
   counts and the unroller takes them. The pattern — min(s, e - x*s)
   with both s uses the same literal and s | e — only arises in blocked
   emission; prefetch clamps and slice guards have different shapes. *)
let eliminate_block_clamps body =
  let consts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let defs : (int, Ir.rvalue) Hashtbl.t = Hashtbl.create 256 in
  let ranges : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let n = ref 0 in
  let const_of (v : Ir.value) = Hashtbl.find_opt consts v.Ir.vid in
  (* [x] provably stays below [bound]: an induction variable whose
     constant range fits, or a packed block coordinate (Load). *)
  let bounded (x : Ir.value) bound =
    match Hashtbl.find_opt ranges x.Ir.vid with
    | Some (lo, hi) -> lo >= 0 && hi <= bound
    | None -> (
      match Hashtbl.find_opt defs x.Ir.vid with
      | Some (Ir.Load _) -> true
      | _ -> false)
  in
  (* min(s, e - x*s), either operand order on the min and the mul. *)
  let clamp_side (cand : Ir.value) (other : Ir.value) =
    match (const_of cand, Hashtbl.find_opt defs other.Ir.vid) with
    | Some s, Some (Ir.Ibin (Ir.Isub, e_v, m_v)) when s > 0 -> (
      match (const_of e_v, Hashtbl.find_opt defs m_v.Ir.vid) with
      | Some e, Some (Ir.Ibin (Ir.Imul, x, s_v))
        when e mod s = 0 && const_of s_v = Some s && bounded x (e / s) ->
        Some s
      | Some e, Some (Ir.Ibin (Ir.Imul, s_v, x))
        when e mod s = 0 && const_of s_v = Some s && bounded x (e / s) ->
        Some s
      | _ -> None)
    | _ -> None
  in
  let rewrite (v : Ir.value) rv =
    match rv with
    | Ir.Ibin (Ir.Imin, p, q) -> (
      match
        (match clamp_side p q with Some s -> Some s | None -> clamp_side q p)
      with
      | Some s ->
        incr n;
        Ir.Const (const_of_ty v.Ir.vty s)
      | None -> rv)
    | _ -> rv
  in
  let rec go_block b = List.map go_stmt b
  and go_stmt = function
    | Ir.Let (v, rv) ->
      let rv = rewrite v rv in
      Hashtbl.replace defs v.Ir.vid rv;
      (match rv with
       | Ir.Const (Ir.Cidx k | Ir.Ci64 k) -> Hashtbl.replace consts v.Ir.vid k
       | _ -> ());
      Ir.Let (v, rv)
    | Ir.For f ->
      (match (const_of f.Ir.f_lo, const_of f.Ir.f_hi, const_of f.Ir.f_step)
       with
       | Some lo, Some hi, Some step when step > 0 && lo >= 0 ->
         (* The iv's last value is lo + floor((hi-lo-1)/step)*step < hi. *)
         Hashtbl.replace ranges f.Ir.f_iv.Ir.vid (lo, hi)
       | _ -> ());
      Ir.For { f with Ir.f_body = go_block f.Ir.f_body }
    | Ir.While w ->
      Ir.While
        { w with Ir.w_cond = go_block w.Ir.w_cond;
          w_body = go_block w.Ir.w_body }
    | Ir.If (c, t, e) -> Ir.If (c, go_block t, go_block e)
    | (Ir.Store _ | Ir.Prefetch _) as s -> s
  in
  let b = go_block body in
  (b, !n)

(* --- Constant-trip full unrolling ------------------------------------ *)

(* Walk the body bottom-up expanding every non-top [For] whose bounds
   are literal constants and whose trip count is within [cap]. Loop
   results are substituted with the final carried values via [rsub],
   which the rest of the walk applies to all later uses. Top-level loops
   are kept: they own slice handling (profiling and the dense-outer
   parallel path restrict their range at run time). *)
let unroll_const_loops (s : Rewrite.supply) cap body =
  let consts : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rsub : (int, Ir.value) Hashtbl.t = Hashtbl.create 16 in
  let n_unrolled = ref 0 and n_iters = ref 0 in
  let look = Rewrite.lookup rsub in
  let const_of (v : Ir.value) = Hashtbl.find_opt consts v.Ir.vid in
  let rec go_block ~top b = List.concat_map (go_stmt ~top) b
  and go_stmt ~top = function
    | Ir.Let (v, rv) ->
      let rv' = Rewrite.map_uses_rv look rv in
      (match rv' with
       | Ir.Const (Ir.Cidx k | Ir.Ci64 k) -> Hashtbl.replace consts v.Ir.vid k
       | _ -> ());
      [ Ir.Let (v, rv') ]
    | Ir.Store (buf, i, v) -> [ Ir.Store (buf, look i, look v) ]
    | Ir.Prefetch p -> [ Ir.Prefetch { p with Ir.pidx = look p.Ir.pidx } ]
    | Ir.If (c, t, e) ->
      [ Ir.If (look c, go_block ~top:false t, go_block ~top:false e) ]
    | Ir.While w ->
      [ Ir.While
          { w with
            Ir.w_carried =
              List.map (fun (arg, init) -> (arg, look init)) w.Ir.w_carried;
            w_cond = go_block ~top:false w.Ir.w_cond;
            w_cond_v = look w.Ir.w_cond_v;
            w_body = go_block ~top:false w.Ir.w_body;
            w_yield = List.map look w.Ir.w_yield } ]
    | Ir.For f ->
      let f_lo = look f.Ir.f_lo
      and f_hi = look f.Ir.f_hi
      and f_step = look f.Ir.f_step in
      let f_carried =
        List.map (fun (arg, init) -> (arg, look init)) f.Ir.f_carried
      in
      let body' = go_block ~top:false f.Ir.f_body in
      let f_yield = List.map look f.Ir.f_yield in
      let f =
        { f with Ir.f_lo; f_hi; f_step; f_carried; f_body = body'; f_yield }
      in
      let trip =
        match (const_of f_lo, const_of f_hi, const_of f_step) with
        | Some lo, Some hi, Some step when step > 0 ->
          Some (lo, step, if hi <= lo then 0 else (hi - lo + step - 1) / step)
        | _ -> None
      in
      (match trip with
       | Some (lo, step, trip)
         when (not top) && trip <= cap && not (Rewrite.contains_loop body') ->
         incr n_unrolled;
         n_iters := !n_iters + trip;
         let out = ref [] in
         let cur = ref (List.map snd f.Ir.f_carried) in
         for t = 0 to trip - 1 do
           let sub = Hashtbl.create 32 in
           let ivc = Rewrite.copy s f.Ir.f_iv in
           out :=
             Ir.Let (ivc, Ir.Const (const_of_ty f.Ir.f_iv.Ir.vty (lo + (t * step))))
             :: !out;
           Hashtbl.replace sub f.Ir.f_iv.Ir.vid ivc;
           List.iter2
             (fun (arg, _) v -> Hashtbl.replace sub arg.Ir.vid v)
             f.Ir.f_carried !cur;
           let cloned = Rewrite.clone s ~outer:look sub body' in
           out := List.rev_append cloned !out;
           cur := List.map (Rewrite.lookup sub) f.Ir.f_yield
         done;
         List.iter2
           (fun (r : Ir.value) v -> Hashtbl.replace rsub r.Ir.vid v)
           f.Ir.f_results !cur;
         List.rev !out
       | _ -> [ Ir.For f ])
  in
  let b = go_block ~top:true body in
  (b, !n_unrolled, !n_iters)

(* --- Dead-code elimination ------------------------------------------- *)

(* A let is removable when its value is unused and evaluating it cannot
   fault or touch the memory hierarchy: loads (cache events, bounds
   faults) and unfolded div/rem (divide-by-zero traps) stay. *)
let pure_rv = function
  | Ir.Const _ | Ir.Fbin _ | Ir.Icmp _ | Ir.Select _ | Ir.Cast _ | Ir.Dim _ ->
    true
  | Ir.Ibin ((Ir.Idiv | Ir.Irem), _, _) -> false
  | Ir.Ibin _ -> true
  | Ir.Load _ -> false

let dce body =
  let removed = ref 0 in
  let rec sweep body =
    let used : (int, unit) Hashtbl.t = Hashtbl.create 256 in
    let u (v : Ir.value) = Hashtbl.replace used v.Ir.vid () in
    let mark_rv = function
      | Ir.Const _ | Ir.Dim _ -> ()
      | Ir.Ibin (_, x, y) | Ir.Fbin (_, x, y) | Ir.Icmp (_, x, y) ->
        u x; u y
      | Ir.Select (c, x, y) -> u c; u x; u y
      | Ir.Load (_, i) -> u i
      | Ir.Cast (_, x) -> u x
    in
    let rec mark_block b = List.iter mark_stmt b
    and mark_stmt = function
      | Ir.Let (_, rv) -> mark_rv rv
      | Ir.Store (_, i, v) -> u i; u v
      | Ir.Prefetch p -> u p.Ir.pidx
      | Ir.For f ->
        u f.Ir.f_lo; u f.Ir.f_hi; u f.Ir.f_step;
        List.iter (fun (_, init) -> u init) f.Ir.f_carried;
        List.iter u f.Ir.f_yield;
        mark_block f.Ir.f_body
      | Ir.While w ->
        List.iter (fun (_, init) -> u init) w.Ir.w_carried;
        u w.Ir.w_cond_v;
        List.iter u w.Ir.w_yield;
        mark_block w.Ir.w_cond;
        mark_block w.Ir.w_body
      | Ir.If (c, t, e) -> u c; mark_block t; mark_block e
    in
    mark_block body;
    let changed = ref false in
    let rec prune b =
      List.filter_map
        (function
          | Ir.Let (v, rv) when pure_rv rv && not (Hashtbl.mem used v.Ir.vid)
            ->
            incr removed;
            changed := true;
            None
          | Ir.For f -> Some (Ir.For { f with Ir.f_body = prune f.Ir.f_body })
          | Ir.While w ->
            Some
              (Ir.While
                 { w with Ir.w_cond = prune w.Ir.w_cond;
                   w_body = prune w.Ir.w_body })
          | Ir.If (c, t, e) -> Some (Ir.If (c, prune t, prune e))
          | s -> Some s)
        b
    in
    let b' = prune body in
    if !changed then sweep b' else b'
  in
  let b = sweep body in
  (b, !removed)

(* --- Prefetch stripping ---------------------------------------------- *)

let strip_prefetch body =
  let n = ref 0 in
  let rec go b =
    List.filter_map
      (function
        | Ir.Prefetch _ ->
          incr n;
          None
        | Ir.For f -> Some (Ir.For { f with Ir.f_body = go f.Ir.f_body })
        | Ir.While w ->
          Some
            (Ir.While
               { w with Ir.w_cond = go w.Ir.w_cond; w_body = go w.Ir.w_body })
        | Ir.If (c, t, e) -> Some (Ir.If (c, go t, go e))
        | s -> Some s)
      b
  in
  let b = go body in
  (b, !n)

(* --- Entry point ------------------------------------------------------ *)

let apply (facts : facts) (fn : Ir.func) : Ir.func * stats =
  let s = Rewrite.supply fn in
  let params =
    List.filter_map
      (function Ir.Pscalar v -> Some v | Ir.Pbuf _ -> None)
      fn.Ir.fn_params
  in
  if List.length params <> List.length facts.f_scalars then
    invalid_arg "Specialize.apply: scalar argument count mismatch";
  (* 1. Materialise every scalar parameter as an entry constant and
     redirect its uses there; the parameter itself stays in the
     signature so callers' argument lists are unchanged. *)
  let psub : (int, Ir.value) Hashtbl.t = Hashtbl.create 8 in
  let entry =
    List.map2
      (fun (v : Ir.value) x ->
        let c = Rewrite.fresh s (v.Ir.vname ^ "_k") v.Ir.vty in
        Hashtbl.replace psub v.Ir.vid c;
        Ir.Let (c, Ir.Const (const_of_ty v.Ir.vty x)))
      params facts.f_scalars
  in
  let body = entry @ Rewrite.map_uses (Rewrite.lookup psub) fn.Ir.fn_body in
  let mk body = Rewrite.with_supply { fn with Ir.fn_body = body } s in
  (* 2. Fold parameter constants through the body. *)
  let fn1, fs1 = Fold.run (mk body) in
  (* 3. Eliminate block edge clamps the folded extents prove away, then
     fully unroll constant-trip loops (the clamps were what kept the
     BSR micro-loop bounds dynamic). *)
  let body, n_clamps = eliminate_block_clamps fn1.Ir.fn_body in
  let body, n_unrolled, n_iters =
    unroll_const_loops s unroll_cap body
  in
  (* 4. Fold again: induction constants feed address arithmetic. *)
  let fn2, fs2 = Fold.run (mk body) in
  (* 5. Strip prefetch hooks a zero tuned distance makes dead. *)
  let body, n_pf =
    match facts.f_distance with
    | Some 0 -> strip_prefetch fn2.Ir.fn_body
    | _ -> (fn2.Ir.fn_body, 0)
  in
  (* 6. Sweep the dead feeder arithmetic. *)
  let body, n_dce = dce body in
  let fn' = mk body in
  (match Verify.check_result fn' with
   | Ok () -> ()
   | Error m -> invalid_arg ("Specialize.apply: broke the IR: " ^ m));
  ( fn',
    { sp_params = List.length params;
      sp_folded = fs1.Fold.folded + fs2.Fold.folded;
      sp_clamps = n_clamps;
      sp_unrolled = n_unrolled;
      sp_iterations = n_iters;
      sp_dce = n_dce;
      sp_prefetch_stripped = n_pf } )
