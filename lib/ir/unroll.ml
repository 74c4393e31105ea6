(* Innermost-loop unrolling (see unroll.mli).

   Shape of the rewrite for [scf.for %i = %lo to %hi step %s] with
   constant step [s = k > 0] and factor [f]:

     %hi'    = max(%hi, %lo)                 trip-count arithmetic is
     %span   = %hi' - %lo                    unsigned, so clamp first
     %trip   = (%span + (k-1)) / k
     %tripm  = (%trip / f) * f               iterations in the main loop
     %mainhi = %lo + %tripm * k
     main:      scf.for %i0 = %lo to %mainhi step (f*k)
                  body[%i0], body[%i0 + k], ... body[%i0 + (f-1)k]
     remainder: scf.for %i = %mainhi to %hi step %s   (original body)

   Replica r's loop-carried arguments are bound to replica r-1's yields,
   so the sequential iteration order — and therefore every value,
   including float accumulation order — is preserved exactly.  The
   remainder loop is the original loop with its lower bound and carried
   inits redirected, keeping the original result values defined for
   downstream uses. *)

open Ir

type stats = { unrolled : int }

let run ~factor (fn : func) : func * stats =
  if factor <= 1 then (fn, { unrolled = 0 })
  else begin
    let s = Rewrite.supply fn in
    let unrolled = ref 0 in
    (* vid -> compile-time index constant, built on the way down (SSA:
       a value has one definition, so the table never needs scoping). *)
    let consts : (int, int) Hashtbl.t = Hashtbl.create 32 in
    let def (name : string) (ty : scalar) (rv : rvalue) : value * stmt =
      let v = Rewrite.fresh s name ty in
      (v, Let (v, rv))
    in
    (* Constants needed by the rewrites (unroll factor, per-replica
       offsets) are pure, so they are hoisted to the function entry
       instead of being re-materialised on every trip into the loop. *)
    let hoisted : stmt list ref = ref [] in
    let hoist_const (name : string) (i : int) : value =
      let v = Rewrite.fresh s name Index in
      hoisted := Let (v, Const (Cidx i)) :: !hoisted;
      v
    in
    let rec go_block (b : block) : block =
      List.concat_map go_stmt b
    and go_stmt (st : stmt) : stmt list =
      match st with
      | Let (v, (Const (Cidx k) as rv)) ->
        Hashtbl.replace consts v.vid k;
        [ Let (v, rv) ]
      | Let _ | Store _ | Prefetch _ -> [ st ]
      | If (c, t, e) -> [ If (c, go_block t, go_block e) ]
      | While w ->
        [ While { w with w_cond = go_block w.w_cond;
                         w_body = go_block w.w_body } ]
      | For f ->
        (match Hashtbl.find_opt consts f.f_step.vid with
         | Some k when k > 0 && not (Rewrite.contains_loop f.f_body) ->
           incr unrolled;
           unroll_for k f
         | _ -> [ For { f with f_body = go_block f.f_body } ])
    and unroll_for (k : int) (f : forloop) : stmt list =
      let iv = f.f_iv in
      let c_fk = hoist_const "ufk" (factor * k) in
      (* Trip-count prelude, on the path into the loop.  For the
         ubiquitous step 1 the group boundary is just
         [hi' - (hi' - lo) mod f]; a general step needs the full
         round-down-trip-count computation. *)
      let hi', s_hi = def "uhi" Index (Ibin (Imax, f.f_hi, f.f_lo)) in
      let span, s_span = def "uspan" Index (Ibin (Isub, hi', f.f_lo)) in
      let prelude, main_hi =
        if k = 1 then begin
          let rem, s_rem = def "urem" Index (Ibin (Irem, span, c_fk)) in
          let main_hi, s_mh = def "umainhi" Index (Ibin (Isub, hi', rem)) in
          ([ s_hi; s_span; s_rem; s_mh ], main_hi)
        end
        else begin
          let c_km1 = hoist_const "uk1" (k - 1) in
          let c_k = hoist_const "uk" k in
          let c_f = hoist_const "uf" factor in
          let spanp, s1 = def "uspanp" Index (Ibin (Iadd, span, c_km1)) in
          let trip, s2 = def "utrip" Index (Ibin (Idiv, spanp, c_k)) in
          let tripd, s3 = def "utripd" Index (Ibin (Idiv, trip, c_f)) in
          let tripm, s4 = def "utripm" Index (Ibin (Imul, tripd, c_f)) in
          let offs, s5 = def "uoffs" Index (Ibin (Imul, tripm, c_k)) in
          let main_hi, s6 = def "umainhi" Index (Ibin (Iadd, f.f_lo, offs)) in
          ([ s_hi; s_span; s1; s2; s3; s4; s5; s6 ], main_hi)
        end
      in
      (* Per-replica induction offsets: pure constants, hoisted. *)
      let offsets =
        List.init (factor - 1) (fun r ->
            hoist_const (Printf.sprintf "uoff%d" (r + 1)) ((r + 1) * k))
      in
      (* Main loop: fresh iv and carried args, body replicated [factor]
         times with replica r's carried args fed by replica r-1's yields. *)
      let iv0 = Rewrite.copy s iv in
      let args0 =
        List.map
          (fun ((arg : value), init) -> (Rewrite.copy s arg, init))
          f.f_carried
      in
      let rec replicas r (carried_in : value list) acc =
        if r >= factor then (List.rev acc |> List.concat, carried_in)
        else begin
          let subst : (int, value) Hashtbl.t = Hashtbl.create 32 in
          (* Bind the replica's induction value. *)
          let iv_stmts =
            if r = 0 then begin
              Hashtbl.replace subst iv.vid iv0;
              []
            end
            else begin
              let off = List.nth offsets (r - 1) in
              let iv_r = Rewrite.copy s iv in
              Hashtbl.replace subst iv.vid iv_r;
              [ Let (iv_r, Ibin (Iadd, iv0, off)) ]
            end
          in
          List.iter2
            (fun ((arg : value), _) (v : value) ->
              Hashtbl.replace subst arg.vid v)
            f.f_carried carried_in;
          let body = Rewrite.clone s subst f.f_body in
          let outs = List.map (Rewrite.lookup subst) f.f_yield in
          replicas (r + 1) outs ((iv_stmts @ body) :: acc)
        end
      in
      let main_body, main_yield =
        replicas 0 (List.map fst args0) []
      in
      let main_results =
        List.map (Rewrite.copy s) f.f_results
      in
      let main =
        For
          { f_iv = iv0; f_lo = f.f_lo; f_hi = main_hi; f_step = c_fk;
            f_carried = args0; f_results = main_results; f_body = main_body;
            f_yield = main_yield;
            f_tag = (if f.f_tag = "" then "unrolled"
                     else f.f_tag ^ " unrolled") }
      in
      (* Remainder: the original loop, restarted at main_hi from the main
         loop's results; keeps the original result values alive. *)
      let rem_inits = List.map2 (fun (arg, _) r -> (arg, r))
          f.f_carried main_results
      in
      let remainder = For { f with f_lo = main_hi; f_carried = rem_inits } in
      prelude @ [ main; remainder ]
    in
    let body = go_block fn.fn_body in
    let body = List.rev !hoisted @ body in
    let fn' = Rewrite.with_supply { fn with fn_body = body } s in
    (match Verify.check_result fn' with
     | Ok () -> ()
     | Error m -> invalid_arg ("unroll: broke the IR: " ^ m));
    (fn', { unrolled = !unrolled })
  end
