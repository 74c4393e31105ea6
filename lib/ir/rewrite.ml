(* Generic traversal and use-def utilities over Ir functions.

   These are the "low-level" analyses available to a post-hoc pass such as
   the Ainsworth & Jones baseline: they see only IR structure, with none of
   the sparsification-time semantic context ASaP enjoys. *)

open Ir

(** [def_table fn] maps a value id to the rvalue that defines it, when the
    definition is a [Let]. Region arguments and loop results map to [None]. *)
let def_table (fn : func) : rvalue option array =
  let t = Array.make fn.fn_nvalues None in
  let rec go_block b = List.iter go_stmt b
  and go_stmt = function
    | Let (v, rv) -> t.(v.vid) <- Some rv
    | Store _ | Prefetch _ -> ()
    | For f -> go_block f.f_body
    | While w -> go_block w.w_cond; go_block w.w_body
    | If (_, th, el) -> go_block th; go_block el
  in
  go_block fn.fn_body;
  t

(** [iter_stmts f fn] applies [f] to every statement, outermost first. *)
let iter_stmts f (fn : func) =
  let rec go_block b = List.iter go_stmt b
  and go_stmt s =
    f s;
    match s with
    | Let _ | Store _ | Prefetch _ -> ()
    | For fl -> go_block fl.f_body
    | While w -> go_block w.w_cond; go_block w.w_body
    | If (_, th, el) -> go_block th; go_block el
  in
  go_block fn.fn_body

(** [loads fn] lists every [Load] with its defined value. *)
let loads (fn : func) : (value * buffer * value) list =
  let acc = ref [] in
  iter_stmts
    (function
      | Let (v, Load (b, i)) -> acc := (v, b, i) :: !acc
      | _ -> ())
    fn;
  List.rev !acc

(** [contains_for b] tests whether a block contains a nested for loop. *)
let rec contains_for (b : block) =
  List.exists
    (function
      | For _ -> true
      | While w -> contains_for w.w_cond || contains_for w.w_body
      | If (_, th, el) -> contains_for th || contains_for el
      | Let _ | Store _ | Prefetch _ -> false)
    b

(** [map_fors f fn] rebuilds [fn], replacing every for loop [fl] by
    [f ~innermost fl] where [innermost] says whether [fl] contains no nested
    for loop. Children are transformed before their parents. *)
let map_fors f (fn : func) : func =
  let rec go_block b = List.map go_stmt b
  and go_stmt = function
    | (Let _ | Store _ | Prefetch _) as s -> s
    | For fl ->
      let fl = { fl with f_body = go_block fl.f_body } in
      For (f ~innermost:(not (contains_for fl.f_body)) fl)
    | While w ->
      While { w with w_cond = go_block w.w_cond; w_body = go_block w.w_body }
    | If (c, th, el) -> If (c, go_block th, go_block el)
  in
  { fn with fn_body = go_block fn.fn_body }

(** [contains_loop b] tests whether a block contains a for or while loop
    (looking through ifs). *)
let rec contains_loop (b : block) =
  List.exists
    (function
      | For _ | While _ -> true
      | If (_, th, el) -> contains_loop th || contains_loop el
      | Let _ | Store _ | Prefetch _ -> false)
    b

(* --- The value supply ------------------------------------------------ *)

(** A fresh-name supply for passes that must add values to an existing
    function (ids continue from [fn_nvalues]). *)
type supply = { mutable next : int }

let supply (fn : func) = { next = fn.fn_nvalues }

let fresh (s : supply) name ty =
  let v = { vid = s.next; vname = name; vty = ty } in
  s.next <- s.next + 1;
  v

let copy (s : supply) (v : value) = fresh s v.vname v.vty

(** [with_supply fn s] updates the function's id bound after a pass that
    used [s] to mint new values. *)
let with_supply (fn : func) (s : supply) = { fn with fn_nvalues = s.next }

(* --- Use substitution -------------------------------------------------- *)

let lookup (tbl : (int, value) Hashtbl.t) (v : value) =
  match Hashtbl.find_opt tbl v.vid with Some v' -> v' | None -> v

let map_uses_rv look = function
  | Const _ as r -> r
  | Ibin (op, x, y) -> Ibin (op, look x, look y)
  | Fbin (op, x, y) -> Fbin (op, look x, look y)
  | Icmp (p, x, y) -> Icmp (p, look x, look y)
  | Select (c, x, y) -> Select (look c, look x, look y)
  | Load (b, i) -> Load (b, look i)
  | Dim _ as r -> r
  | Cast (ty, x) -> Cast (ty, look x)

(* Region arguments and results are definitions; loop bounds, carried
   inits, yields and condition values are uses. *)
let rec map_uses look (b : block) = List.map (map_uses_stmt look) b

and map_uses_stmt look = function
  | Let (v, rv) -> Let (v, map_uses_rv look rv)
  | Store (b, i, v) -> Store (b, look i, look v)
  | Prefetch p -> Prefetch { p with pidx = look p.pidx }
  | For f ->
    For
      { f with
        f_lo = look f.f_lo;
        f_hi = look f.f_hi;
        f_step = look f.f_step;
        f_carried = List.map (fun (arg, init) -> (arg, look init)) f.f_carried;
        f_body = map_uses look f.f_body;
        f_yield = List.map look f.f_yield }
  | While w ->
    While
      { w with
        w_carried = List.map (fun (arg, init) -> (arg, look init)) w.w_carried;
        w_cond = map_uses look w.w_cond;
        w_cond_v = look w.w_cond_v;
        w_body = map_uses look w.w_body;
        w_yield = List.map look w.w_yield }
  | If (c, th, el) -> If (look c, map_uses look th, map_uses look el)

(* --- Cloning ----------------------------------------------------------- *)

(* Every definition gets a fresh id in definition order (a loop's
   induction variable, then its carried arguments, body and results),
   recorded in [subst]. SSA ids are globally unique, so one flat table
   needs no scope tracking. The [let]s fix the order of evaluation. *)
let clone (s : supply) ?(outer = Fun.id) (subst : (int, value) Hashtbl.t)
    (blk : block) : block =
  let look (v : value) =
    match Hashtbl.find_opt subst v.vid with Some v' -> v' | None -> outer v
  in
  let def (v : value) =
    let v' = copy s v in
    Hashtbl.replace subst v.vid v';
    v'
  in
  let carried cs =
    let inits = List.map (fun (_, init) -> look init) cs in
    List.map2 (fun (arg, _) init -> (def arg, init)) cs inits
  in
  let rec go_block b = List.map go_stmt b
  and go_stmt = function
    | Let (v, rv) ->
      let rv' = map_uses_rv look rv in
      Let (def v, rv')
    | (Store _ | Prefetch _) as st -> map_uses_stmt look st
    | For f ->
      let f_lo = look f.f_lo and f_hi = look f.f_hi
      and f_step = look f.f_step in
      let f_iv = def f.f_iv in
      let f_carried = carried f.f_carried in
      let f_body = go_block f.f_body in
      let f_yield = List.map look f.f_yield in
      let f_results = List.map def f.f_results in
      For { f with f_iv; f_lo; f_hi; f_step; f_carried; f_results; f_body;
                   f_yield }
    | While w ->
      let w_carried = carried w.w_carried in
      let w_cond = go_block w.w_cond in
      let w_cond_v = look w.w_cond_v in
      let w_body = go_block w.w_body in
      let w_yield = List.map look w.w_yield in
      let w_results = List.map def w.w_results in
      While { w with w_carried; w_results; w_cond; w_cond_v; w_body; w_yield }
    | If (c, th, el) ->
      (* The else branch takes its ids first. *)
      let el = go_block el in
      let th = go_block th in
      If (look c, th, el)
  in
  go_block blk
