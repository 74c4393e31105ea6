(* Test entry point: one Alcotest run over all library suites. *)

let () =
  Alcotest.run "asap"
    [ ("ir", Test_ir.suite);
      ("tensor", Test_tensor.suite);
      ("pack", Test_pack.suite);
      ("lang", Test_lang.suite);
      ("sparsifier", Test_sparsifier.suite);
      ("prefetch", Test_prefetch.suite);
      ("trace", Test_trace.suite);
      ("sim", Test_sim.suite);
      ("interp-props", Test_interp_props.suite);
      ("core", Test_core.suite);
      ("model", Test_model.suite);
      ("engine", Test_engine.suite);
      ("hier-oracle", Test_hier_oracle.suite);
      ("obs", Test_obs.suite);
      ("pass", Test_pass.suite);
      ("golden", Test_golden.suite);
      ("specialize", Test_specialize.suite);
      ("serve", Test_serve.suite);
      ("check", Test_check.suite) ]
