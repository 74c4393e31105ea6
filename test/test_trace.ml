(* Stream-based validation of prefetch coverage: mechanically checks the
   paper's §3.2.2 claim — ASaP's whole-buffer bound covers the dense
   operand's lines across segment boundaries, while the segment-local
   bound leaves the head of every short segment uncovered — on the
   one-cycle port, independent of the timing model. *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Encoding = Asap_tensor.Encoding
module Kernel = Asap_lang.Kernel
module Runtime = Asap_sim.Runtime
module Interp = Asap_sim.Interp
module Stream = Asap_sim.Stream
module Pipeline = Asap_core.Pipeline
module Bindings = Asap_core.Bindings
module Asap = Asap_prefetch.Asap
module Generate = Asap_workloads.Generate
open Asap_ir

let check = Alcotest.(check bool)

(* [coverage ?late events ~range ~line_bytes] is (covered, total): over
   demand loads whose address falls in [range) — one operand's buffer —
   how many distinct lines were software-prefetched before their first
   demand touch. With [~late:n] a prefetch only counts when it ran at
   least [n] time units before that touch (prefetches inside the cutoff
   were issued too late to hide the fill); default 0. *)
let coverage ?(late = 0) events ~range:(lo, hi) ~line_bytes =
  let prefetched = Hashtbl.create 64 in        (* line -> earliest pf time *)
  let covered = ref 0 and total = ref 0 in
  let seen = Hashtbl.create 64 in
  List.iter
    (function
      | Stream.Prefetch { addr; at; _ } when addr >= lo && addr < hi ->
        let line = addr / line_bytes in
        if not (Hashtbl.mem prefetched line) then
          Hashtbl.add prefetched line at
      | Stream.Load { addr; at; _ } when addr >= lo && addr < hi ->
        let line = addr / line_bytes in
        if not (Hashtbl.mem seen line) then begin
          Hashtbl.add seen line ();
          incr total;
          match Hashtbl.find_opt prefetched line with
          | Some pf_at when at - pf_at >= late -> incr covered
          | Some _ | None -> ()
        end
      | Stream.Load _ | Stream.Store _ | Stream.Prefetch _ -> ())
    events;
  (!covered, !total)

(* Run CSR SpMV under [variant] on the one-cycle port: the recorded
   events and the address range of the dense operand c. *)
let spmv_events coo variant =
  let enc = Encoding.csr () in
  let rows = coo.Coo.dims.(0) and cols = coo.Coo.dims.(1) in
  let compiled = Pipeline.compile (Kernel.spmv ~enc ()) variant in
  let dense =
    [ ("c", Runtime.RF (Array.init cols float_of_int));
      ("a", Runtime.RF (Array.make rows 0.)) ]
  in
  let bufs =
    Bindings.storage_bufs compiled.Pipeline.cc (Storage.pack enc coo)
      ~binary:false ~dense
  in
  let bound = Runtime.layout compiled.Pipeline.fn bufs in
  let c =
    List.find (fun (b : Runtime.bound) -> b.Runtime.buf.Ir.bname = "c")
      (Array.to_list bound)
  in
  let stream, (_ : Interp.result) =
    Stream.record (fun obs ->
        Interp.run compiled.Pipeline.fn ~bufs:bound
          ~scalars:
            (Bindings.scalar_args compiled.Pipeline.cc
               ~extents:[| rows; cols |])
          ~mem:(Stream.free_port obs))
  in
  let lo = c.Runtime.base in
  (Stream.events stream, (lo, lo + (Runtime.length_of c.Runtime.data * 8)))

let spmv_coverage coo variant =
  let events, range = spmv_events coo variant in
  coverage events ~range ~line_bytes:64

(* Short rows (degree ~3) against distance 8. *)
let short_row_matrix () =
  Generate.power_law ~seed:81 ~rows:3_000 ~cols:3_000 ~avg_deg:3 ~alpha:2.4 ()

let asap8 = Pipeline.Asap { Asap.default with Asap.distance = 8 }

let check_pair msg want got =
  Alcotest.(check (pair int int)) msg want got

let test_semantic_bound_covers () =
  (* The whole-buffer bound misses only the first `distance` iterations'
     worth of lines; everything after is prefetched ahead across segment
     boundaries. *)
  check_pair "semantic covers 367 of 375 lines" (367, 375)
    (spmv_coverage (short_row_matrix ()) asap8)

let test_segment_bound_undercovers () =
  (* With rows far shorter than the distance, the segment-local clamp can
     only ever prefetch each segment's last element — far less coverage
     over the same demand footprint. *)
  check_pair "segment-local covers 96 of 375 lines" (96, 375)
    (spmv_coverage (short_row_matrix ())
       (Pipeline.Asap
          { Asap.default with Asap.distance = 8;
            bound_mode = Asap.Segment_local }))

let test_baseline_no_prefetches () =
  check_pair "baseline never prefetches" (0, 375)
    (spmv_coverage (short_row_matrix ()) Pipeline.Baseline)

let test_trace_event_order () =
  (* Events appear in program order: for ASaP's site the step-1 crd
     prefetch precedes the bounded load which precedes the target
     prefetch, every iteration. *)
  let coo = Coo.of_triples ~rows:2 ~cols:2 [ (0, 0, 1.); (1, 1, 2.) ] in
  let events, _ =
    spmv_events coo (Pipeline.Asap { Asap.default with Asap.distance = 2 })
  in
  let prefetches =
    List.filter (function Stream.Prefetch _ -> true | _ -> false) events
  in
  (* Two sites executed (one nnz per row): 2 prefetches each. *)
  check "four prefetches traced" true (List.length prefetches = 4)

let test_late_cutoff () =
  (* coverage ~late:n only credits prefetches issued at least n time
     units ahead of the first demand touch: monotone non-increasing in n,
     unchanged at 0, and empty once the cutoff exceeds every lead. *)
  let events, range = spmv_events (short_row_matrix ()) asap8 in
  let cov late = fst (coverage ~late events ~range ~line_bytes:64) in
  let c0 = fst (coverage events ~range ~line_bytes:64) in
  check "late:0 = default" true (cov 0 = c0);
  check "covered at all" true (c0 > 0);
  check "cutoff monotone" true (cov 10 <= c0 && cov 100 <= cov 10);
  check "huge cutoff empties coverage" true (cov max_int = 0)

let test_trace_sink () =
  (* The same recorder on the timing hierarchy's sink, fed by Exec
     instead of the one-cycle port. *)
  let coo = Coo.of_triples ~rows:2 ~cols:2 [ (0, 0, 1.); (1, 1, 2.) ] in
  let enc = Encoding.csr () in
  let machine = Asap_sim.Machine.gracemont_scaled () in
  let stream, r =
    Stream.record (fun obs ->
        Asap_core.Driver.run
          (Asap_core.Driver.Cfg.make ~machine
             ~variant:(Pipeline.Asap { Asap.default with Asap.distance = 2 })
             ~obs ())
          (Asap_core.Driver.Spmv enc) coo)
  in
  let events = Stream.events stream in
  let count p = List.length (List.filter p events) in
  let module Exec = Asap_sim.Exec in
  check "sink saw every demand load" true
    (count (function Stream.Load _ -> true | _ -> false)
     = Exec.Report.demand_loads r.Asap_core.Driver.report);
  check "sink saw every store" true
    (count (function Stream.Store _ -> true | _ -> false)
     = Exec.Report.demand_stores r.Asap_core.Driver.report);
  check "sink saw every sw prefetch" true
    (count (function Stream.Prefetch _ -> true | _ -> false)
     = Exec.Report.prefetch_instrs r.Asap_core.Driver.report)

let suite =
  [ Alcotest.test_case "semantic bound coverage" `Quick
      test_semantic_bound_covers;
    Alcotest.test_case "segment bound undercovers" `Quick
      test_segment_bound_undercovers;
    Alcotest.test_case "baseline clean" `Quick test_baseline_no_prefetches;
    Alcotest.test_case "trace order" `Quick test_trace_event_order;
    Alcotest.test_case "late cutoff" `Quick test_late_cutoff;
    Alcotest.test_case "trace as hierarchy sink" `Quick test_trace_sink ]
