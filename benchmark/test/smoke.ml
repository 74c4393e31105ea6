(* Runs every workload of BENCHMARK.json at --scale smoke, once end to
   end and once traced, and checks each run's result line: it is
   correct, nothing failed, and every metric BENCHMARK.json lists for
   that mode is printed with its unit. A run is only correct when every
   op's output matched the dense reference and its virtual quantities
   repeated exactly between the check pass and the timed pass.

   Usage: smoke.exe MAIN_EXE BENCHMARK_JSON *)

module Jsonu = Asap_obs.Jsonu

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("benchmark smoke: " ^ m);
      exit 1)
    fmt

let field k j =
  match Jsonu.member k j with Some v -> v | None -> fail "no field %S" k

let str k j =
  match Jsonu.to_str_opt (field k j) with
  | Some s -> s
  | None -> fail "field %S is not a string" k

let items k j =
  match Jsonu.to_list_opt (field k j) with
  | Some l -> l
  | None -> fail "field %S is not a list" k

let parse what s =
  match Jsonu.of_string s with
  | Ok j -> j
  | Error e -> fail "%s is not JSON: %s" what e

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> fail "%s %s failed:\n%s" exe (String.concat " " args) out

let last_line out =
  match List.rev (String.split_on_char '\n' (String.trim out)) with
  | l :: _ -> l
  | [] -> fail "no output"

let () =
  let exe = Sys.argv.(1) in
  let spec =
    parse "BENCHMARK.json"
      (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all)
  in
  let metrics key =
    List.map (fun m -> (str "name" m, str "unit" m)) (items key spec)
  in
  List.iter
    (fun w ->
      let name = str "name" w in
      List.iter
        (fun (trace, key) ->
          let args =
            [ "--workload"; name; "--seed"; "3"; "--seconds"; "0";
              "--trace"; trace; "--scale"; "smoke" ]
          in
          let r = parse "the result line" (last_line (run exe args)) in
          let what = Printf.sprintf "%s --trace %s" name trace in
          if Jsonu.to_bool_opt (field "correct" r) <> Some true then
            fail "%s: not correct" what;
          if Jsonu.to_int_opt (field "failed" r) <> Some 0 then
            fail "%s: failed ops" what;
          let got = field "metrics" r in
          List.iter
            (fun (m, unit) ->
              match Jsonu.member m got with
              | None -> fail "%s: metric %s missing" what m
              | Some v ->
                if str "unit" v <> unit then
                  fail "%s: metric %s has unit %s, not %s" what m
                    (str "unit" v) unit;
                if Jsonu.to_float_opt (field "value" v) = None then
                  fail "%s: metric %s has no value" what m)
            (metrics key))
        [ ("0", "end_to_end"); ("1", "per_layer") ])
    (items "workloads" spec)
