(* Pipeline resolution and execution.

   [resolve] turns a syntactic {!Spec.t} into registry-validated pass
   instances with every parameter defaulted, enforcing the structural
   rules (one entry pass, first; hook passes directly after it).  The
   canonical form of a resolved pipeline — full parameters in declared
   order — is what serve fingerprints embed, so two spellings of the
   same pipeline share one artefact and two different pipelines never
   collide. *)

module Kernel = Asap_lang.Kernel
module Emitter = Asap_sparsifier.Emitter
module Access = Asap_sparsifier.Access
module Registry = Asap_obs.Registry

type rpass = { pass : Pass.t; args : Pass.params }

type resolved = rpass list

let fail fmt = Printf.ksprintf invalid_arg fmt

(* Validate one item against its registration: unknown names and
   parameters are rejected with the offending spec substring quoted. *)
let resolve_item (src : string) (it : Spec.item) : rpass =
  Builtin.ensure ();
  match Pass.find it.Spec.pi_name with
  | None ->
    fail "pipeline spec: unknown pass %S in %S" it.Spec.pi_name src
  | Some pass ->
    List.iter
      (fun (k, v) ->
        match List.find_opt (fun p -> p.Pass.p_name = k) pass.Pass.params with
        | None ->
          fail "pipeline spec: pass %S has no parameter %S (in %S)"
            pass.Pass.name k src
        | Some ps ->
          (match (v, ps.Pass.p_syms) with
           | Spec.Vint _, [] -> ()
           | Spec.Vint _, _ :: _ ->
             fail
               "pipeline spec: %s.%s takes a symbol (one of %s), got an \
                integer (in %S)"
               pass.Pass.name k
               (String.concat "|" ps.Pass.p_syms)
               src
           | Spec.Vsym s, syms ->
             if syms = [] then
               fail "pipeline spec: %s.%s takes an integer, got %S (in %S)"
                 pass.Pass.name k s src
             else if not (List.mem s syms) then
               fail "pipeline spec: %s.%s must be one of %s, got %S (in %S)"
                 pass.Pass.name k (String.concat "|" syms) s src))
      it.Spec.pi_params;
    let args =
      List.map
        (fun ps ->
          ( ps.Pass.p_name,
            match List.assoc_opt ps.Pass.p_name it.Spec.pi_params with
            | Some v -> v
            | None -> ps.Pass.p_default ))
        pass.Pass.params
    in
    { pass; args }

let check_structure (src : string) (rs : resolved) : unit =
  List.iteri
    (fun i r ->
      match r.pass.Pass.kind with
      | Pass.Entry _ ->
        if i <> 0 then
          fail "pipeline spec: entry pass %S must come first (in %S)"
            r.pass.Pass.name src
      | Pass.Hook _ ->
        let after_entry_or_hook =
          i > 0
          &&
          match (List.nth rs (i - 1)).pass.Pass.kind with
          | Pass.Entry _ | Pass.Hook _ -> true
          | Pass.Ir_pass _ -> false
        in
        if not after_entry_or_hook then
          fail
            "pipeline spec: hook pass %S must directly follow the entry \
             pass (in %S)"
            r.pass.Pass.name src
      | Pass.Ir_pass _ -> ())
    rs

let resolve (text : string) : resolved =
  match Spec.parse text with
  | spec ->
    let rs = List.map (resolve_item text) spec in
    check_structure text rs;
    rs
  | exception Spec.Error { pos; msg } ->
    fail "pipeline spec: at %d: %s (in %S)" pos msg text

(* Canonical form: every pass with its full parameter list in declared
   order.  Parsing the canonical form resolves to the same pipeline. *)
let canonical (rs : resolved) : string =
  Spec.to_string
    (List.map
       (fun r -> { Spec.pi_name = r.pass.Pass.name; pi_params = r.args })
       rs)

let canonical_of_string (text : string) : string = canonical (resolve text)

(* --- Execution -------------------------------------------------------- *)

type compiled = {
  cc : Emitter.compiled;
  fn : Asap_ir.Ir.func;
  sites : int;
}

let note (registry : Registry.t option) (name : string) (rewrites : int)
    (ns : int) =
  match registry with
  | None -> ()
  | Some reg ->
    Registry.add reg (Printf.sprintf "pass.%s.runs" name) 1;
    Registry.add reg (Printf.sprintf "pass.%s.rewrites" name) rewrites;
    Registry.add reg (Printf.sprintf "pass.%s.ns" name) ns

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  (r, ns)

(* Run the Ir_pass tail over [fn]. *)
let run_tail ?registry (rs : resolved) (fn : Asap_ir.Ir.func) :
    Asap_ir.Ir.func * int =
  List.fold_left
    (fun (fn, sites) r ->
      match r.pass.Pass.kind with
      | Pass.Entry _ | Pass.Hook _ ->
        fail "pipeline: pass %S cannot run on already-lowered IR"
          r.pass.Pass.name
      | Pass.Ir_pass f ->
        let (fn, rewrites), ns = timed (fun () -> f r.args fn) in
        note registry r.pass.Pass.name rewrites ns;
        (fn, if r.pass.Pass.counts_sites then sites + rewrites else sites))
    (fn, 0) rs

let compile ?registry (rs : resolved) (k : Kernel.t) : compiled =
  match rs with
  | [] -> fail "pipeline: empty resolved pipeline"
  | entry :: rest ->
    let entry_f =
      match entry.pass.Pass.kind with
      | Pass.Entry f -> f
      | _ ->
        fail "pipeline: %S is not an entry pass (a spec must start with \
              one, e.g. \"sparsify\")"
          entry.pass.Pass.name
    in
    (* Peel the hook prefix; compose hooks in order. *)
    let rec split_hooks acc = function
      | r :: tl when (match r.pass.Pass.kind with
                      | Pass.Hook _ -> true
                      | _ -> false) -> split_hooks (r :: acc) tl
      | tl -> (List.rev acc, tl)
    in
    let hook_passes, tail = split_hooks [] rest in
    let hook =
      match hook_passes with
      | [] -> None
      | _ ->
        let hooks =
          List.map
            (fun r ->
              match r.pass.Pass.kind with
              | Pass.Hook f -> f r.args
              | _ -> assert false)
            hook_passes
        in
        Some (fun b site -> List.iter (fun h -> h b site) hooks)
    in
    let cc, ns =
      timed (fun () ->
          match hook with
          | None -> entry_f entry.args k
          | Some hook -> entry_f entry.args ~hook k)
    in
    note registry entry.pass.Pass.name 0 ns;
    List.iter
      (fun r -> note registry r.pass.Pass.name cc.Emitter.n_sites 0)
      hook_passes;
    let hook_sites = if hook = None then 0 else cc.Emitter.n_sites in
    let fn, pass_sites = run_tail ?registry tail cc.Emitter.fn in
    { cc; fn; sites = hook_sites + pass_sites }
