(* The pass registry's first lookup, raced from several domains.

   This is its own executable so that the lookups below are the first
   registry lookups the process makes: every domain is released at once
   and resolves a pipeline naming every built-in pass, so a registry
   that is only partly registered when some domain looks at it fails
   with "unknown pass". *)

module Runner = Asap_pass.Runner

let spec = "sparsify,asap{d=8},aj{d=8},fold,licm,unroll{f=2},slack"

let domains = 4

let test_first_resolve_race () =
  let ready = Atomic.make 0 in
  let resolve_once () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    match Runner.resolve spec with
    | (_ : Runner.resolved) -> Ok ()
    | exception Invalid_argument m -> Error m
  in
  let results =
    List.init domains (fun _ -> Domain.spawn resolve_once)
    |> List.map Domain.join
  in
  List.iteri
    (fun i r ->
      Alcotest.(check (result unit string))
        (Printf.sprintf "domain %d resolves every built-in pass" i)
        (Ok ()) r)
    results

let () =
  Alcotest.run "registry"
    [ ( "race",
        [ Alcotest.test_case "first resolve from several domains" `Quick
            test_first_resolve_race ] ) ]
