(* Pass-pipeline subsystem tests: spec syntax and error positions,
   registry validation (unknown passes/parameters, duplicate
   registration, schema checks), canonical forms, variant specs, and the
   pass.<name>.* runner counters. *)

module Spec = Asap_pass.Spec
module Pass = Asap_pass.Pass
module Runner = Asap_pass.Runner
module Builtin = Asap_pass.Builtin
module Pipeline = Asap_core.Pipeline
module Kernel = Asap_lang.Kernel
module Encoding = Asap_tensor.Encoding
module Registry = Asap_obs.Registry
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones

let check = Alcotest.(check bool)
let check_s = Alcotest.(check string)
let check_int = Alcotest.(check int)
let contains = Astring_contains.contains

(* --- Spec syntax ------------------------------------------------------ *)

let test_spec_parse () =
  let s =
    Spec.parse " sparsify , asap { d = 32 , strategy = both } ,unroll{f=4}"
  in
  (match s with
   | [ a; b; c ] ->
     check_s "first item" "sparsify" a.Spec.pi_name;
     check "first has no params" true (a.Spec.pi_params = []);
     check_s "second item" "asap" b.Spec.pi_name;
     check "params in source order" true
       (b.Spec.pi_params
        = [ ("d", Spec.Vint 32); ("strategy", Spec.Vsym "both") ]);
     check_s "third reprints" "unroll{f=4}" (Spec.to_string [ c ])
   | _ -> Alcotest.fail "expected 3 items");
  (* Canonical spelling is a to_string/parse fixed point. *)
  let text = "sparsify,asap{d=32,strategy=both},unroll{f=4}" in
  check_s "print/parse fixed point" text (Spec.to_string (Spec.parse text));
  check "negative integer value" true
    (Spec.parse "p{x=-3}"
     = [ { Spec.pi_name = "p"; pi_params = [ ("x", Spec.Vint (-3)) ] } ])

let err_pos text =
  match Spec.parse text with
  | (_ : Spec.t) -> Alcotest.fail ("unexpectedly parsed: " ^ text)
  | exception Spec.Error { pos; msg } -> (pos, msg)

let test_spec_error_positions () =
  let pos, msg = err_pos "" in
  check_int "empty spec at 1" 1 pos;
  check "empty spec message" true (contains msg "empty");
  (* "sparsify,," — the missing item is reported at the second comma. *)
  let pos, msg = err_pos "sparsify,," in
  check_int "missing item position" 10 pos;
  check "missing item message" true (contains msg "name");
  (* "asap{d 32}" — '=' expected right after the parameter name. *)
  let pos, msg = err_pos "asap{d 32}" in
  check_int "missing '=' position" 8 pos;
  check "missing '=' message" true (contains msg "=");
  let _, msg = err_pos "asap{d=32,d=4}" in
  check "duplicate parameter message" true (contains msg "duplicate");
  (* Stray character after a complete item. *)
  let pos, msg = err_pos "fold licm" in
  check_int "stray char position" 6 pos;
  check "stray char message" true (contains msg "unexpected");
  (* parse_result renders position and the spec itself. *)
  (match Spec.parse_result "asap{" with
   | Ok _ -> Alcotest.fail "parsed dangling brace"
   | Error m ->
     check "parse_result carries pos" true (contains m "at 6");
     check "parse_result quotes spec" true (contains m "asap{"))

(* --- Registry validation --------------------------------------------- *)

let expect_invalid name spec needles =
  match Runner.resolve spec with
  | (_ : Runner.resolved) -> Alcotest.fail (name ^ ": resolved")
  | exception Invalid_argument m ->
    List.iter
      (fun n -> check (name ^ ": mentions " ^ n) true (contains m n))
      (spec :: needles)

let test_resolve_errors () =
  expect_invalid "unknown pass" "sparsify,nope" [ "unknown pass"; "nope" ];
  expect_invalid "unknown parameter" "sparsify,asap{q=1}"
    [ "no parameter"; "\"q\"" ];
  expect_invalid "symbol for int" "sparsify,asap{d=both}"
    [ "takes an integer"; "both" ];
  expect_invalid "int for symbol" "sparsify,asap{strategy=3}"
    [ "takes a symbol"; "both|inner|outer" ];
  expect_invalid "bad symbol" "sparsify,asap{strategy=diag}"
    [ "must be one of"; "diag" ];
  expect_invalid "entry not first" "fold,sparsify" [ "must come first" ];
  expect_invalid "hook after ir pass" "sparsify,fold,asap"
    [ "must directly follow" ];
  expect_invalid "hook without entry" "asap" [ "must directly follow" ];
  (* Syntax errors surface as Invalid_argument too, with the position. *)
  expect_invalid "syntax error" "sparsify,," [ "at 10" ]

let dummy_ir_pass name =
  { Pass.name; doc = "test dummy"; params = [];
    kind = Pass.Ir_pass (fun _ fn -> (fn, 0)); counts_sites = false }

let test_register_duplicate () =
  Builtin.ensure ();
  (* Clashing with a builtin is rejected. *)
  (match Pass.register (dummy_ir_pass "fold") with
   | () -> Alcotest.fail "duplicate of builtin accepted"
   | exception Invalid_argument m ->
     check "duplicate names the pass" true (contains m "\"fold\"");
     check "duplicate says duplicate" true (contains m "duplicate"));
  (* A fresh pass registers once, resolves, and rejects re-registration. *)
  Pass.register (dummy_ir_pass "test-noop");
  check "registered pass resolves" true
    (List.length (Runner.resolve "sparsify,test-noop") = 2);
  (match Pass.register (dummy_ir_pass "test-noop") with
   | () -> Alcotest.fail "re-registration accepted"
   | exception Invalid_argument m ->
     check "re-registration rejected" true (contains m "test-noop"))

let test_register_schema () =
  let with_param p =
    { (dummy_ir_pass "test-bad-schema") with Pass.params = [ p ] }
  in
  (match
     Pass.register
       (with_param
          { Pass.p_name = "m"; p_doc = ""; p_default = Spec.Vsym "zzz";
            p_syms = [ "a"; "b" ] })
   with
   | () -> Alcotest.fail "default outside symbol set accepted"
   | exception Invalid_argument m ->
     check "schema error names default" true (contains m "zzz"));
  match
    Pass.register
      (with_param
         { Pass.p_name = "m"; p_doc = ""; p_default = Spec.Vint 1;
           p_syms = [ "a" ] })
  with
  | () -> Alcotest.fail "integer default with symbols accepted"
  | exception Invalid_argument m ->
    check "schema error names param" true (contains m "test-bad-schema.m")

(* --- Canonical forms -------------------------------------------------- *)

let test_canonical () =
  let c = Runner.canonical_of_string "sparsify,asap" in
  check_s "defaults filled in declared order"
    (Printf.sprintf "sparsify,asap{d=%d,l=%d,strategy=both,bound=semantic,step1=true}"
       Asap.default.Asap.distance Asap.default.Asap.locality)
    c;
  check "canonical is a fixed point" true (Runner.canonical_of_string c = c);
  check "spellings converge" true
    (Runner.canonical_of_string
       (Printf.sprintf " sparsify , asap { d = %d } "
          Asap.default.Asap.distance)
     = c);
  check "distinct pipelines stay distinct" true
    (Runner.canonical_of_string "sparsify,asap{d=16}" <> c);
  check "parameter order does not matter" true
    (Runner.canonical_of_string "sparsify,asap{l=2,d=16}"
     = Runner.canonical_of_string "sparsify,asap{d=16,l=2}")

(* --- Variant specs ---------------------------------------------------- *)

(* A variant compiles exactly as its canonical spec does, and the
   optimising tail is spelled as a spec suffix. *)
let test_variant_specs () =
  let enc = Encoding.csr () in
  let k = Kernel.spmv ~enc () in
  check_s "baseline spec" "sparsify" (Pipeline.spec_of_variant Pipeline.Baseline);
  let asap_v = Pipeline.Asap { Asap.default with Asap.distance = 8 } in
  check "asap spec carries its distance" true
    (contains (Pipeline.spec_of_variant asap_v) "asap{d=8,");
  List.iter
    (fun v ->
      let spec = Pipeline.spec_of_variant v in
      let implicit = Pipeline.compile k v in
      let explicit = Pipeline.compile ~pipeline:spec k v in
      check_s "variant IR = spec IR" (Pipeline.listing implicit)
        (Pipeline.listing explicit);
      let opt = Pipeline.compile ~pipeline:(spec ^ ",fold,licm") k v in
      check_int "fold,licm tail keeps sites" implicit.Pipeline.n_prefetch_sites
        opt.Pipeline.n_prefetch_sites)
    [ Pipeline.Baseline; asap_v;
      Pipeline.Ainsworth_jones { Aj.default with Aj.distance = 8 } ]

(* --- Runner execution and counters ------------------------------------ *)

let test_runner_counters () =
  let enc = Encoding.csr () in
  let k = Kernel.spmv ~enc () in
  let reg = Registry.create () in
  let c =
    Pipeline.compile ~pipeline:"sparsify,asap{d=8},fold,licm,unroll{f=2}"
      ~registry:reg k Pipeline.Baseline
  in
  List.iter
    (fun name ->
      check_int (Printf.sprintf "pass.%s.runs" name) 1
        (Registry.find reg (Printf.sprintf "pass.%s.runs" name)))
    [ "sparsify"; "asap"; "fold"; "licm"; "unroll" ];
  check "asap rewrites = sites" true
    (Registry.find reg "pass.asap.rewrites" = c.Pipeline.n_prefetch_sites);
  check "unroll rewrote a loop" true
    (Registry.find reg "pass.unroll.rewrites" > 0);
  (* Sites flow from the hook pass; the aj ir-pass counts its own. *)
  check "hook pipeline instruments sites" true
    (c.Pipeline.n_prefetch_sites > 0);
  let aj = Pipeline.compile ~pipeline:"sparsify,aj{d=8}" k Pipeline.Baseline in
  check "aj counts matched sites" true (aj.Pipeline.n_prefetch_sites > 0)

(* --- Spec fuzzing ----------------------------------------------------

   Random well-formed specs must survive to_string/parse structurally
   intact; random garbage must either parse or raise {!Spec.Error} with
   an in-range 1-based position — never any other exception — and
   [parse_result] must never raise at all. *)

let gen_pname =
  QCheck2.Gen.(
    let* first = char_range 'a' 'z' in
    let* rest =
      string_size ~gen:(oneofl [ 'a'; 'k'; 'z'; '_'; '3' ]) (int_range 0 6)
    in
    pure (String.make 1 first ^ rest))

let gen_spec_ast =
  QCheck2.Gen.(
    let gen_param =
      let* name = gen_pname in
      let* v =
        oneof
          [ map (fun i -> Spec.Vint i) (int_range (-99) 999);
            map (fun s -> Spec.Vsym s) gen_pname ]
      in
      pure (name, v)
    in
    let gen_item =
      let* pi_name = gen_pname in
      let* params = list_size (int_range 0 3) gen_param in
      (* The parser rejects duplicate parameter names; keep first wins. *)
      let pi_params =
        List.fold_left
          (fun acc (n, v) ->
            if List.mem_assoc n acc then acc else acc @ [ (n, v) ])
          [] params
      in
      pure { Spec.pi_name; pi_params }
    in
    list_size (int_range 1 5) gen_item)

let qcheck_spec_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"random specs round-trip"
    gen_spec_ast (fun ast ->
      let text = Spec.to_string ast in
      Spec.parse text = ast && Spec.to_string (Spec.parse text) = text)

let qcheck_spec_garbage =
  QCheck2.Test.make ~count:500 ~name:"garbage specs fail labelled"
    QCheck2.Gen.(
      string_size
        ~gen:(oneofl
          [ 'a'; 's'; 'p'; '3'; '-'; '{'; '}'; '='; ','; ' '; '%'; ';';
            '\t'; '.' ])
        (int_range 0 40))
    (fun text ->
      (match Spec.parse text with
       | (_ : Spec.t) -> ()
       | exception Spec.Error { pos; msg } ->
         if pos < 1 || pos > String.length text + 1 then
           QCheck2.Test.fail_reportf "position %d out of range (len %d)"
             pos (String.length text);
         if msg = "" then QCheck2.Test.fail_report "empty error message");
      match Spec.parse_result text with
      | Ok (_ : Spec.t) -> true
      | Error m -> contains m "at ")

let suite =
  [ Alcotest.test_case "spec parse/print" `Quick test_spec_parse;
    QCheck_alcotest.to_alcotest qcheck_spec_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_spec_garbage;
    Alcotest.test_case "spec error positions" `Quick
      test_spec_error_positions;
    Alcotest.test_case "resolve errors" `Quick test_resolve_errors;
    Alcotest.test_case "duplicate registration" `Quick
      test_register_duplicate;
    Alcotest.test_case "registration schema" `Quick test_register_schema;
    Alcotest.test_case "canonical forms" `Quick test_canonical;
    Alcotest.test_case "optimize alias" `Quick test_variant_specs;
    Alcotest.test_case "runner counters" `Quick test_runner_counters ]
