(* The built-in pass set: the existing lowering stages re-expressed as
   registered passes, plus the unrolling and prefetch-slack transforms.

   Registration runs once, when this module is initialised at program
   start — before any domain can be spawned — so the first registry
   lookup from any domain always sees the complete set.  Entry points
   that consult the registry call [ensure] only to keep this module
   linked. *)

module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Sparsify = Asap_sparsifier.Sparsify
module Fold = Asap_ir.Fold
module Licm = Asap_ir.Licm
module Unroll = Asap_ir.Unroll
module Slack = Asap_ir.Slack

let vi i = Spec.Vint i
let vs s = Spec.Vsym s

let int_param name doc default =
  { Pass.p_name = name; p_doc = doc; p_default = vi default; p_syms = [] }

let sym_param name doc default syms =
  { Pass.p_name = name; p_doc = doc; p_default = vs default; p_syms = syms }

let asap_config (ps : Pass.params) : Asap.config =
  { Asap.distance = Pass.pint ps "d";
    locality = Pass.pint ps "l";
    strategy =
      (match Pass.psym ps "strategy" with
       | "inner" -> Asap.Innermost_only
       | "outer" -> Asap.Outer_only
       | _ -> Asap.Both);
    bound_mode =
      (match Pass.psym ps "bound" with
       | "segment" -> Asap.Segment_local
       | _ -> Asap.Semantic);
    step1 = Pass.psym ps "step1" = "true" }

let () =
  List.iter Pass.register
    [ { Pass.name = "sparsify";
        doc = "lower the kernel to verified imperative IR (entry pass)";
        params = []; counts_sites = false;
        kind = Pass.Entry (fun _ps ?hook k -> Sparsify.run ?hook k) };
      { Pass.name = "asap";
        doc = "ASaP prefetch injection during sparsification (paper 3.2)";
        params =
          [ int_param "d" "lookahead distance in iterations"
              Asap.default.Asap.distance;
            int_param "l" "prefetch locality hint (0-3)"
              Asap.default.Asap.locality;
            sym_param "strategy" "site placement" "both"
              [ "both"; "inner"; "outer" ];
            sym_param "bound" "step-2 bound" "semantic"
              [ "semantic"; "segment" ];
            sym_param "step1" "emit the step-1 crd prefetch" "true"
              [ "true"; "false" ] ];
        counts_sites = false;
        kind = Pass.Hook (fun ps -> Asap.hook (asap_config ps)) };
      { Pass.name = "aj";
        doc = "Ainsworth-Jones post-hoc prefetch pass (prior art)";
        params =
          [ int_param "d" "lookahead distance in iterations"
              Aj.default.Aj.distance;
            int_param "l" "prefetch locality hint (0-3)"
              Aj.default.Aj.locality ];
        counts_sites = true;
        kind =
          Pass.Ir_pass
            (fun ps fn ->
              let cfg =
                { Aj.distance = Pass.pint ps "d";
                  locality = Pass.pint ps "l" }
              in
              let fn, stats = Aj.run ~cfg fn in
              (fn, stats.Aj.matched_sites)) };
      { Pass.name = "fold";
        doc = "constant folding and algebraic simplification";
        params = []; counts_sites = false;
        kind =
          Pass.Ir_pass
            (fun _ps fn ->
              let fn, stats = Fold.run fn in
              (fn, stats.Fold.folded)) };
      { Pass.name = "licm";
        doc = "loop-invariant code motion";
        params = []; counts_sites = false;
        kind =
          Pass.Ir_pass
            (fun _ps fn ->
              let fn, stats = Licm.run fn in
              (fn, stats.Licm.hoisted)) };
      { Pass.name = "unroll";
        doc = "unroll innermost constant-step loops (value-exact)";
        params = [ int_param "f" "unroll factor" 4 ];
        counts_sites = false;
        kind =
          Pass.Ir_pass
            (fun ps fn ->
              let fn, stats = Unroll.run ~factor:(Pass.pint ps "f") fn in
              (fn, stats.Unroll.unrolled)) };
      { Pass.name = "slack";
        doc = "hoist prefetches earlier within their verified bound";
        params = [ int_param "max" "maximum hoist distance in statements" 8 ];
        counts_sites = false;
        kind =
          Pass.Ir_pass
            (fun ps fn ->
              let fn, stats = Slack.run ~max_dist:(Pass.pint ps "max") fn in
              (fn, stats.Slack.moved)) } ]

let ensure () = ()
