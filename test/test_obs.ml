(* Observability-layer tests: the counter registry must be byte-identical
   across execution engines and unaffected by tracing (the sink hook is
   pure observation), the Chrome trace export must be well-formed (sorted
   timestamps, matched B/E span pairs per track), Driver.run must agree
   with the per-kernel wrappers it subsumes, and every counter name must
   sit in the DESIGN.md §3c catalogue. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Hp = Asap_sim.Hw_prefetcher
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Generate = Asap_workloads.Generate
module Sink = Asap_obs.Sink
module Chrome = Asap_obs.Chrome
module Registry = Asap_obs.Registry
module Jsonu = Asap_obs.Jsonu

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let machine = Machine.gracemont_scaled ()

let small_matrix seed =
  Generate.power_law ~seed ~rows:250 ~cols:250 ~avg_deg:5 ~alpha:2.0 ()

let asap_v = Pipeline.Asap { Asap.default with Asap.distance = 8 }

let run_with ~engine ~obs variant coo =
  let cfg = Driver.Cfg.make ~engine ~obs ~machine ~variant () in
  Driver.run cfg (Driver.Spmv (Encoding.csr ())) coo

(* --- Registry differential ------------------------------------------- *)

let test_registry_differential () =
  (* Four runs of the same kernel: {Interp, Bytecode} x {tracing off,
     tracing on}. All four counter registries must be byte-identical —
     the engines are drop-ins and observation never perturbs timing. *)
  let coo = small_matrix 61 in
  List.iter
    (fun (vn, v) ->
      let runs =
        List.concat_map
          (fun engine ->
            List.map
              (fun traced ->
                let obs =
                  if traced then Chrome.sink (Chrome.create ())
                  else Sink.null
                in
                (run_with ~engine ~obs v coo).Driver.counters)
              [ false; true ])
          [ `Interp; `Bytecode ]
      in
      match runs with
      | reference :: rest ->
        check (vn ^ ": some counters") true (reference <> []);
        List.iteri
          (fun i c ->
            check (Printf.sprintf "%s: registry %d = registry 0" vn (i + 1))
              true (c = reference))
          rest
      | [] -> assert false)
    [ ("baseline", Pipeline.Baseline); ("asap", asap_v);
      ("aj", Pipeline.Ainsworth_jones { Aj.default with Aj.distance = 8 }) ]

let test_counters_match_report () =
  (* The result's [counters] field is exactly the report's canonical
     export, and the registry round-trips through the assoc list. *)
  let coo = small_matrix 62 in
  let r = run_with ~engine:`Interp ~obs:Sink.null asap_v coo in
  let assoc = Exec.Report.to_assoc r.Driver.report in
  check "counters = Report.to_assoc" true (r.Driver.counters = assoc);
  let rt = Registry.of_assoc assoc in
  check "of_assoc round-trip" true (Registry.to_assoc rt = assoc);
  check_int "absent counter reads 0" 0 (Registry.find rt "no.such.counter");
  let reg = Exec.Report.registry r.Driver.report in
  check "cycles counter = accessor" true
    (Registry.find reg "core.cycles" = Exec.Report.cycles r.Driver.report);
  check "sw issued counter = accessor" true
    (Registry.find reg "pf.sw.issued" = Exec.Report.sw_issued r.Driver.report)

(* --- Counter-name catalogue ------------------------------------------ *)

let catalogue_prefixes =
  [ "core."; "mem."; "l1."; "l2."; "l3."; "dram."; "pf."; "op." ]

let required_names =
  [ "core.threads"; "core.cycles"; "core.instructions"; "core.flops";
    "mem.loads"; "mem.stores"; "mem.prefetches"; "mem.demand.loads";
    "mem.demand.stores"; "l1.miss.demand"; "l2.miss.demand";
    "l3.miss.demand"; "dram.lines" ]

let test_catalogue () =
  let coo = small_matrix 63 in
  let r = run_with ~engine:`Bytecode ~obs:Sink.null asap_v coo in
  let reg = Exec.Report.registry r.Driver.report in
  let names = Registry.names reg in
  List.iter
    (fun n ->
      check ("name in catalogue: " ^ n) true
        (List.exists
           (fun p ->
             String.length n > String.length p
             && String.sub n 0 (String.length p) = p)
           catalogue_prefixes))
    names;
  List.iter
    (fun n -> check ("required name present: " ^ n) true (List.mem n names))
    required_names;
  (* Every provenance — the six hardware prefetchers plus software — owns
     the full per-prefetcher breakdown. *)
  List.iter
    (fun slug ->
      List.iter
        (fun leaf ->
          let n = "pf." ^ slug ^ "." ^ leaf in
          check ("pf breakdown present: " ^ n) true (List.mem n names))
        [ "issued"; "useful"; "late"; "drop.no_mshr"; "drop.present";
          "evicted" ])
    [ "sw"; Hp.slug_of_id 0; Hp.slug_of_id 2; Hp.slug_of_id 3 ];
  (* ASaP actually prefetches on this kernel. *)
  check "pf.sw.issued > 0" true (Registry.find reg "pf.sw.issued" > 0);
  (* Per-op attribution sites resolve to buffer@loop names. *)
  check "some op.* counters" true
    (List.exists (fun n -> String.length n > 3 && String.sub n 0 3 = "op.")
       names);
  List.iter
    (fun (m : Exec.op_miss) ->
      check "op_miss pc attributable" true
        (m.Exec.om_pc >= 0 && m.Exec.om_pc < 0x10000);
      check "op_miss has buffer" true (m.Exec.om_buf <> "");
      check "op_miss loop tag has no spaces" true
        (not (String.contains m.Exec.om_loop ' ')))
    (Exec.Report.op_misses r.Driver.report)

(* --- Chrome trace golden validation ---------------------------------- *)

let trace_events coo =
  let c = Chrome.create () in
  let obs = Chrome.sink ~pf_name:Hp.slug_of_id c in
  let (_ : Driver.result) = run_with ~engine:`Bytecode ~obs asap_v coo in
  check "events recorded" true (Chrome.n_events c > 0);
  match Chrome.to_json c with
  | Jsonu.Obj fields ->
    (match List.assoc_opt "traceEvents" fields with
     | Some (Jsonu.List evs) -> evs
     | _ -> Alcotest.fail "traceEvents missing or not a list")
  | _ -> Alcotest.fail "trace document is not an object"

let field name = function
  | Jsonu.Obj fields -> List.assoc_opt name fields
  | _ -> None

let str_field name ev =
  match field name ev with Some (Jsonu.Str s) -> Some s | _ -> None

let int_field name ev =
  match field name ev with Some (Jsonu.Int i) -> Some i | _ -> None

let test_chrome_golden () =
  let evs = trace_events (small_matrix 64) in
  check "trace is non-empty" true (evs <> []);
  (* Every event is an object carrying ph and pid; timed phases carry
     ts and tid. *)
  let last_ts = ref min_int in
  let spans : (int, int ref * int ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let ph =
        match str_field "ph" ev with
        | Some p -> p
        | None -> Alcotest.fail "event without ph"
      in
      check "pid present" true (int_field "pid" ev <> None);
      if ph <> "M" then begin
        let ts =
          match int_field "ts" ev with
          | Some t -> t
          | None -> Alcotest.fail "timed event without ts"
        in
        check "ts sorted non-decreasing" true (ts >= !last_ts);
        last_ts := ts;
        let tid =
          match int_field "tid" ev with
          | Some t -> t
          | None -> Alcotest.fail "timed event without tid"
        in
        match ph with
        | "B" | "E" ->
          let b, e =
            match Hashtbl.find_opt spans tid with
            | Some p -> p
            | None ->
              let p = (ref 0, ref 0) in
              Hashtbl.add spans tid p;
              p
          in
          if ph = "B" then incr b else incr e;
          (* Never more closes than opens at any point in the stream. *)
          check "E never precedes its B" true (!e <= !b)
        | "X" ->
          check "X has dur" true (int_field "dur" ev <> None)
        | "i" -> ()
        | p -> Alcotest.fail ("unexpected phase " ^ p)
      end)
    evs;
  check "at least one span track" true (Hashtbl.length spans > 0);
  Hashtbl.iter
    (fun tid (b, e) ->
      check (Printf.sprintf "track %d: B/E matched" tid) true (!b = !e))
    spans

let test_chrome_json_parses () =
  (* The serialised document must be self-consistent: every brace and
     bracket balanced, and it must start as an object with traceEvents. *)
  let c = Chrome.create () in
  let obs = Chrome.sink c in
  let (_ : Driver.result) =
    run_with ~engine:`Interp ~obs Pipeline.Baseline (small_matrix 65)
  in
  let s = Chrome.to_string c in
  let depth = ref 0 and in_str = ref false and escaped = ref false in
  String.iter
    (fun ch ->
      if !escaped then escaped := false
      else if !in_str then begin
        if ch = '\\' then escaped := true else if ch = '"' then in_str := false
      end
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' -> decr depth
        | _ -> ())
    s;
  check "balanced JSON" true (!depth = 0 && not !in_str);
  check "document is an object" true (String.length s > 0 && s.[0] = '{')

(* --- Driver.run = Prep.exec ------------------------------------------ *)

let same_result name (a : Driver.result) (b : Driver.result) =
  check (name ^ ": report") true (a.Driver.report = b.Driver.report);
  check (name ^ ": counters") true (a.Driver.counters = b.Driver.counters);
  check (name ^ ": nnz") true (a.Driver.nnz = b.Driver.nnz);
  check (name ^ ": out_f") true (a.Driver.out_f = b.Driver.out_f);
  check (name ^ ": out_b") true (a.Driver.out_b = b.Driver.out_b)

(* The one-shot entry point and the prepared path agree in every result
   field, for every kernel family. *)
let test_run_equals_prep () =
  let coo = small_matrix 66 in
  let enc = Encoding.csr () in
  let cfg = Driver.Cfg.make ~machine ~variant:asap_v () in
  let both name cfg spec coo =
    same_result name (Driver.run cfg spec coo)
      (Driver.Prep.exec (Driver.Prep.make cfg spec coo))
  in
  both "spmv" cfg (Driver.Spmv enc) coo;
  both "spmm" { cfg with Driver.Cfg.n = Some 4 } (Driver.Spmm enc) coo;
  both "binary spmv" { cfg with Driver.Cfg.binary = true } (Driver.Spmv enc)
    coo;
  both "sddmm" { cfg with Driver.Cfg.n = Some 3 } (Driver.Sddmm enc) coo;
  let t3 = Generate.tensor3 ~seed:67 ~dims:[| 15; 20; 25 |] ~nnz:300 () in
  both "ttv" cfg (Driver.Ttv None) t3;
  (* A four-thread Prep re-executes exactly, and its outputs match the
     single-thread run (each row is still summed by one core). *)
  let machine4 = Machine.gracemont_scaled ~cores:4 () in
  let parallel name cfg spec =
    let cfg4 = { cfg with Driver.Cfg.machine = machine4; threads = 4 } in
    let p = Driver.Prep.make cfg4 spec coo in
    let owned (r : Driver.result) =
      { r with Driver.out_f = Option.map Array.copy r.Driver.out_f;
               out_b = Option.map Bytes.copy r.Driver.out_b }
    in
    let first = owned (Driver.Prep.exec p) in
    let second = Driver.Prep.exec p in
    same_result (name ^ " x4 re-exec") first second;
    check (name ^ " x4: 4 threads") true
      (Exec.Report.threads second.Driver.report = 4);
    let single = Driver.run cfg spec coo in
    check (name ^ " x4: out_f = 1 thread") true
      (second.Driver.out_f = single.Driver.out_f);
    check (name ^ " x4: out_b = 1 thread") true
      (second.Driver.out_b = single.Driver.out_b)
  in
  parallel "spmv" cfg (Driver.Spmv enc);
  parallel "spmm" { cfg with Driver.Cfg.n = Some 4 } (Driver.Spmm enc)

(* --- Registry snapshot/diff ------------------------------------------ *)

let test_registry_snapshot_diff () =
  let r = Registry.create () in
  Registry.set r "a.one" 3;
  Registry.set r "a.two" 5;
  let before = Registry.snapshot r in
  Registry.add r "a.one" 4;
  Registry.set r "b.new" 2;
  (* The snapshot is immutable: mutating [r] must not leak into it. *)
  check_int "snapshot frozen" 3 (Registry.find before "a.one");
  check "snapshot has no b.new" true (Registry.get before "b.new" = None);
  Alcotest.(check (list (pair string int)))
    "diff is the change set"
    [ ("a.one", 4); ("b.new", 2) ]
    (Registry.diff ~before ~after:r);
  (* Unchanged counters drop; a self-diff is empty. *)
  Alcotest.(check (list (pair string int)))
    "self diff empty" []
    (Registry.diff ~before:r ~after:r);
  (* A counter that disappears (or was only on the before side) reads as
     a negative change. *)
  Alcotest.(check (list (pair string int)))
    "reverse diff negates"
    [ ("a.one", -4); ("b.new", -2) ]
    (Registry.diff ~before:r ~after:before)

(* --- Jsonu parsing ---------------------------------------------------- *)

let test_jsonu_roundtrip () =
  let doc =
    Jsonu.Obj
      [ ("s", Jsonu.Str "a\"b\\c\n\t");
        ("i", Jsonu.Int (-42));
        ("f", Jsonu.Float 1.5);
        ("b", Jsonu.Bool true);
        ("nul", Jsonu.Null);
        ("l", Jsonu.List [ Jsonu.Int 1; Jsonu.Str "x"; Jsonu.Bool false ]);
        ("o", Jsonu.Obj [ ("k", Jsonu.Int 7) ]) ]
  in
  (match Jsonu.of_string (Jsonu.to_string doc) with
   | Ok parsed -> check "emit/parse roundtrip" true (parsed = doc)
   | Error e -> Alcotest.fail e);
  (* Numbers: int unless '.' or exponent; unicode escapes decode. *)
  (match Jsonu.of_string {| {"a": 2e3, "u": "\u00e9\ud83d\ude00"} |} with
   | Ok j ->
     check "2e3 is float" true
       (Jsonu.member "a" j |> Option.get |> Jsonu.to_float_opt = Some 2000.);
     check "int accessor rejects non-integral" true
       (Jsonu.of_string "1.5" |> Result.get_ok |> Jsonu.to_int_opt = None);
     check "utf8 decode" true
       (Jsonu.member "u" j |> Option.get |> Jsonu.to_str_opt
        = Some "\xc3\xa9\xf0\x9f\x98\x80")
   | Error e -> Alcotest.fail e);
  (* Malformed inputs are errors, not exceptions. *)
  List.iter
    (fun s ->
      check (Printf.sprintf "reject %S" s) true
        (Result.is_error (Jsonu.of_string s)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated";
      "{\"a\" 1}" ]

let test_cfg_defaults () =
  let cfg = Driver.Cfg.make ~machine ~variant:Pipeline.Baseline () in
  check "default engine" true (cfg.Driver.Cfg.engine = Exec.default_engine);
  check_int "default threads" 1 cfg.Driver.Cfg.threads;
  check "default numeric" true (not cfg.Driver.Cfg.binary);
  check "default n unset" true (cfg.Driver.Cfg.n = None);
  check "default packing fresh" true (cfg.Driver.Cfg.st = None);
  check "default sink disabled" true
    (not cfg.Driver.Cfg.obs.Sink.enabled)

let suite =
  [ Alcotest.test_case "registry differential (engines x tracing)" `Quick
      test_registry_differential;
    Alcotest.test_case "counters = canonical export" `Quick
      test_counters_match_report;
    Alcotest.test_case "counter-name catalogue" `Quick test_catalogue;
    Alcotest.test_case "chrome trace golden" `Quick test_chrome_golden;
    Alcotest.test_case "chrome JSON well-formed" `Quick
      test_chrome_json_parses;
    Alcotest.test_case "Driver.run = Prep.exec" `Quick test_run_equals_prep;
    Alcotest.test_case "Cfg defaults" `Quick test_cfg_defaults;
    Alcotest.test_case "registry snapshot/diff" `Quick
      test_registry_snapshot_diff;
    Alcotest.test_case "jsonu parse roundtrip" `Quick test_jsonu_roundtrip ]
