(* Serving subsystem tests: the request model round-trips through JSONL,
   the LRU counts hits/misses/evictions deterministically, and the
   fleet replay is a pure function of the request list and config —
   byte-equal records at any host parallelism and shard count, repeat
   fingerprints never rebuilt, routing stable under fleet resizes,
   stealing/quotas/shedding/degradation/batching all observable in the
   records. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Pipeline = Asap_core.Pipeline
module Driver = Asap_core.Driver
module Generate = Asap_workloads.Generate
module Request = Asap_serve.Request
module Lru = Asap_serve.Lru
module Build = Asap_serve.Build
module Mix = Asap_serve.Mix
module Router = Asap_serve.Router
module Config = Asap_serve.Config
module Scheduler = Asap_serve.Scheduler
module Slo = Asap_serve.Slo
module Registry = Asap_obs.Registry
module Jsonu = Asap_obs.Jsonu

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Small matrices keep every build cheap; the scheduler's behaviour is
   what is under test. *)
let req ?(id = "r0") ?(kernel = `Spmv) ?(format = "csr")
    ?(matrix = "powerlaw:400,5") ?(variant : Request.variant = `Asap)
    ?(tune_mode = Asap_core.Tuning.default_mode) ?pipeline
    ?(tenant = Request.default_tenant) ?(arrival = 0.) ?deadline
    ?(specialize = false) () : Request.t =
  { Request.id; kernel; format; matrix; variant;
    engine = Exec.default_engine; machine = "optimized"; tune_mode; pipeline;
    tenant; arrival_ms = arrival; deadline; specialize }

let small_profiles () =
  [ Mix.profile "powerlaw:400,5";
    Mix.profile ~variant:`Tuned "powerlaw:400,5";
    Mix.profile ~format:"dcsr" "uniform:300,1200";
    Mix.profile ~kernel:`Ttv ~format:"csf" "tensor3:12,12,12,400";
    Mix.profile ~variant:`Baseline "banded:300,4" ]

let lines rp =
  Array.to_list (Array.map Scheduler.record_to_line rp.Scheduler.rp_records)

(* --- Request model ---------------------------------------------------- *)

let test_request_roundtrip () =
  List.iter
    (fun r ->
      match Request.of_line (Request.to_line r) with
      | Ok r' -> check ("roundtrip " ^ r.Request.id) true (r = r')
      | Error e -> Alcotest.fail e)
    [ req ();
      req ~id:"r1" ~kernel:`Spmm ~format:"dcsr" ~variant:`Tuned ~arrival:3.5
        ~deadline:(Request.Ms 0.25) ();
      req ~id:"r2" ~kernel:`Ttv ~format:"csf" ~matrix:"tensor3:12,12,12,400"
        ~deadline:(Request.Cycles 9000) ();
      req ~id:"r3" ~variant:`Baseline ~format:"csc" ();
      req ~id:"r4" ~tenant:"acme" ();
      req ~id:"r5" ~pipeline:"sparsify,asap{d=16},unroll{f=2}" () ];
  (* A request that names no tenant parses as the default tenant. *)
  match
    Request.of_line {| {"id":"x","kernel":"spmv","matrix":"powerlaw:400,5"} |}
  with
  | Ok r ->
    check "absent tenant defaults" true
      (r.Request.tenant = Request.default_tenant)
  | Error e -> Alcotest.fail e

let test_request_fingerprint () =
  let a = req () in
  (* id, tenant, arrival and deadline are scheduling metadata, not
     cache key. *)
  let b = { a with Request.id = "other"; tenant = "acme"; arrival_ms = 9.;
            deadline = Some (Request.Ms 1.) } in
  check "metadata outside key" true
    (Request.fingerprint a = Request.fingerprint b);
  List.iter
    (fun c ->
      check "artefact fields inside key" true
        (Request.fingerprint a <> Request.fingerprint c))
    [ { a with Request.format = "csc" };
      { a with Request.matrix = "powerlaw:401,5" };
      { a with Request.variant = `Baseline };
      { a with Request.machine = "default" };
      { a with Request.format = "bsr2x8" } ];
  (* "bsr" is the 4x4 default: one encoding, one key. *)
  check "bsr spellings share the key" true
    (Request.fingerprint { a with Request.format = "bsr" }
     = Request.fingerprint { a with Request.format = "bsr4x4" });
  let fb = Request.fallback a in
  check "fallback is baseline" true (fb.Request.variant = `Baseline);
  check "fallback keeps identity" true (fb.Request.id = a.Request.id)

let test_request_errors () =
  List.iter
    (fun line -> check line true (Result.is_error (Request.of_line line)))
    [ "{}";                                          (* missing fields *)
      {| {"id":"x","kernel":"qr","matrix":"m"} |};   (* unknown kernel *)
      {| {"id":"x","kernel":"spmv","matrix":"m","format":"csf"} |};
      "not json" ];
  (* Ttv with a matrix format (and vice versa) is a spec mismatch. *)
  (try
     ignore (Request.spec (req ~kernel:`Ttv ~format:"csr" ()));
     Alcotest.fail "accepted ttv over csr"
   with Invalid_argument _ -> ())

(* --- Pipeline specs in serve ------------------------------------------- *)

let test_request_pipeline () =
  let a = req () in
  let p = req ~pipeline:"sparsify,asap{d=16}" () in
  check "pipeline inside key" true
    (Request.fingerprint a <> Request.fingerprint p);
  (* Spellings of one pipeline share a fingerprint: the key embeds the
     canonical form, with defaults filled. *)
  check "spellings share the key" true
    (Request.fingerprint p
     = Request.fingerprint
         (req ~pipeline:" sparsify , asap { d = 16 , l = 2 } " ()));
  check "distinct specs distinct keys" true
    (Request.fingerprint p
     <> Request.fingerprint
          (req ~pipeline:"sparsify,asap{d=16},unroll{f=4}" ()));
  (* An explicit pipeline supersedes tuning: the tune mode no longer
     reaches the key. *)
  let tuned m = req ~variant:`Tuned ~tune_mode:m ~pipeline:"sparsify,fold" () in
  check "pipeline supersedes tune_mode" true
    (Request.fingerprint (tuned `Sweep) = Request.fingerprint (tuned `Model));
  check "tune_mode still keyed without pipeline" true
    (Request.fingerprint (req ~variant:`Tuned ~tune_mode:`Sweep ())
     <> Request.fingerprint (req ~variant:`Tuned ~tune_mode:`Model ()));
  (* Degraded fallback rebuilds the plain baseline artefact. *)
  check "fallback drops pipeline" true
    ((Request.fallback p).Request.pipeline = None);
  (* Bad specs are rejected at JSONL ingest, not at build time. *)
  (match
     Request.of_line
       {| {"id":"x","kernel":"spmv","matrix":"powerlaw:400,5",
           "pipeline":"sparsify,nope"} |}
   with
   | Ok _ -> Alcotest.fail "ingested unknown pass"
   | Error e ->
     check "ingest error names the pass" true
       (Astring_contains.contains e "nope"))

let test_request_override () =
  let a = req ~variant:`Tuned () in
  check "no arguments: identity" true (Request.override a = a);
  (* The overridden fields key the artefact exactly as if the request
     had carried them. *)
  let same_key name o field =
    check name true (Request.fingerprint o = Request.fingerprint field);
    check (name ^ " changes the key") true
      (Request.fingerprint o <> Request.fingerprint a)
  in
  same_key "specialize"
    (Request.override ~specialize:true a)
    { a with Request.specialize = true };
  same_key "tune_mode"
    (Request.override ~tune_mode:`Model a)
    { a with Request.tune_mode = `Model };
  (* Fixed variants make no tuning decision, so the mode stays out. *)
  let b = req () in
  check "tune_mode outside a fixed variant's key" true
    (Request.fingerprint (Request.override ~tune_mode:`Model b)
     = Request.fingerprint b);
  (* Pipelines apply per tenant. *)
  let pipelines = [ ("acme", "sparsify,asap{d=16}") ] in
  check "tenant's pipeline applied" true
    ((Request.override ~pipelines (req ~tenant:"acme" ())).Request.pipeline
     = Some "sparsify,asap{d=16}");
  check "other tenants untouched" true
    (Request.override ~pipelines b = b)

let test_replay_tenant_pipelines () =
  (* Per-tenant pipeline overrides: replay stays byte-equal at any host
     parallelism, and the override visibly changes the records. *)
  let reqs =
    Mix.hot_cold ~seed:7 ~n:40
      ~tenants:[ ("a", 1.); ("b", 1.) ]
      (small_profiles ())
  in
  let overridden =
    List.map
      (Request.override
         ~pipelines:[ ("a", "sparsify,asap{d=16},unroll{f=2}") ])
      reqs
  in
  let run jobs =
    lines (Scheduler.run Config.(with_jobs jobs default) overridden)
  in
  let l1 = run 1 in
  Alcotest.(check (list string)) "pipelines: jobs 1 = jobs 4 (byte)" l1 (run 4);
  check "override changes the records" true
    (l1 <> lines (Scheduler.run Config.default reqs));
  (* Distinct specs are distinct cache entries; spellings of one spec
     share an artefact. *)
  let r0 = req ~id:"p0" () in
  let r1 = { r0 with Request.id = "p1";
             pipeline = Some "sparsify,asap{d=16}" } in
  (* Same pipeline, different spelling, arriving well after [r1]'s build
     has completed — must hit the cached artefact. *)
  let r2 = { r0 with Request.id = "p2"; arrival_ms = 1e6;
             pipeline = Some " sparsify , asap { d = 16 } " } in
  let rp = Scheduler.run Config.default [ r0; r1; r2 ] in
  check_int "distinct spec builds separately" 2 rp.Scheduler.rp_summary.Slo.s_builds;
  check_int "spellings share the artefact" 1 rp.Scheduler.rp_summary.Slo.s_hits

(* --- Lru --------------------------------------------------------------- *)

let test_lru () =
  let l = Lru.create ~capacity:2 in
  check "miss on empty" true (Lru.find l "a" = None);
  ignore (Lru.add l "a" 1);
  ignore (Lru.add l "b" 2);
  check "hit a" true (Lru.find l "a" = Some 1);
  (* "b" is now least-recently used; inserting "c" evicts it. *)
  check "evicts lru" true (Lru.add l "c" 3 = Some "b");
  check "b gone" true (Lru.find l "b" = None);
  check "a stays" true (Lru.find l "a" = Some 1);
  check_int "hits" 2 (Lru.hits l);
  check_int "misses" 2 (Lru.misses l);
  check_int "evictions" 1 (Lru.evictions l);
  check_int "length" 2 (Lru.length l);
  (* Capacity 0: the valid disabled cache — always miss, never stores. *)
  let z = Lru.create ~capacity:0 in
  ignore (Lru.add z "a" 1);
  check "capacity 0 never stores" true (Lru.find z "a" = None);
  check_int "capacity 0 length" 0 (Lru.length z);
  (try
     ignore (Lru.create ~capacity:(-1));
     Alcotest.fail "accepted negative capacity"
   with Invalid_argument _ -> ())

(* --- Scheduler: determinism ------------------------------------------- *)

let test_replay_deterministic_across_jobs () =
  let reqs = Mix.hot_cold ~seed:5 ~n:60 (small_profiles ()) in
  let run jobs =
    lines (Scheduler.run Config.(with_jobs jobs default) reqs)
  in
  let l1 = run 1 in
  Alcotest.(check (list string)) "jobs 1 = jobs 4 (byte)" l1 (run 4);
  Alcotest.(check (list string)) "replay is reproducible" l1 (run 1)

let test_replay_cache_counters () =
  let reqs = Mix.hot_cold ~seed:6 ~n:50 (small_profiles ()) in
  let uniq =
    List.sort_uniq String.compare (List.map Request.fingerprint reqs)
  in
  let rp = Scheduler.run Config.default reqs in
  let s = rp.Scheduler.rp_summary in
  (* Repeat fingerprints never re-sparsify/re-compile: exactly one host
     build per distinct fingerprint (no deadlines, so no fallbacks). *)
  check_int "builds = distinct fingerprints" (List.length uniq)
    s.Slo.s_builds;
  check_int "misses = distinct fingerprints" (List.length uniq)
    s.Slo.s_misses;
  check "repeats hit" true (s.Slo.s_hits > 0);
  check_int "all served" 50 s.Slo.s_ok;
  (* The default fleet is one shard: records carry trivial fleet fields. *)
  Array.iter
    (fun (r : Scheduler.record) ->
      check "one shard" true (r.Scheduler.r_shard = 0);
      check "never stolen" true (not r.Scheduler.r_stolen))
    rp.Scheduler.rp_records;
  check_int "registry mirrors summary" s.Slo.s_hits
    (Registry.find rp.Scheduler.rp_registry "serve.cache.hit");
  (* Cache off: every request rebuilds and misses. *)
  let off = Scheduler.run Config.(with_cache_capacity 0 default) reqs in
  check_int "uncached builds = requests" 50 off.Scheduler.rp_summary.Slo.s_builds;
  check_int "uncached misses = dispatches" 50
    off.Scheduler.rp_summary.Slo.s_misses;
  check_int "uncached hits" 0 off.Scheduler.rp_summary.Slo.s_hits

let test_replay_eviction () =
  (* Two alternating fingerprints through a 1-entry cache: every
     dispatch misses and (from the second on) evicts. *)
  let reqs =
    List.init 8 (fun i ->
        req
          ~id:(Printf.sprintf "r%d" i)
          ~matrix:(if i mod 2 = 0 then "powerlaw:400,5" else "banded:300,4")
          ~arrival:(float_of_int i)
          ())
  in
  let rp =
    Scheduler.run
      Config.(default |> with_cache_capacity 1 |> with_servers 1)
      reqs
  in
  let s = rp.Scheduler.rp_summary in
  check_int "no hits" 0 s.Slo.s_hits;
  check_int "evictions" 7 s.Slo.s_evictions;
  check_int "but only two builds" 2 s.Slo.s_builds

(* --- Scheduler: shedding, deadlines, batching ------------------------- *)

let test_replay_shedding () =
  (* A burst of 12 simultaneous arrivals into a queue of 4: admission at
     t=0 fills the queue (the head included) and sheds the other 8
     before any dispatch frees a slot. Shed records carry no result. *)
  let reqs =
    List.init 12 (fun i -> req ~id:(Printf.sprintf "r%02d" i) ())
  in
  let rp =
    Scheduler.run
      Config.(
        default |> with_queue_limit 4 |> with_servers 1
        |> with_batching false)
      reqs
  in
  let s = rp.Scheduler.rp_summary in
  check_int "shed" 8 s.Slo.s_shed;
  check_int "served" 4 s.Slo.s_ok;
  check_int "queue peak" 4 s.Slo.s_queue_peak;
  Array.iter
    (fun (r : Scheduler.record) ->
      if r.Scheduler.r_outcome = Scheduler.Shed then begin
        check "shed has no result" true (r.Scheduler.r_result = None);
        check "shed finishes at arrival" true
          (r.Scheduler.r_finish_ms = r.Scheduler.r_req.Request.arrival_ms)
      end)
    rp.Scheduler.rp_records

let test_replay_deadline_degrades () =
  (* One server; the first request occupies it long enough that the
     second's deadline expires in the queue — it must be served as the
     baseline fallback, not dropped. *)
  let reqs =
    [ req ~id:"warm" ();
      req ~id:"late" ~deadline:(Request.Ms 1e-6) ();
      req ~id:"slack" ~deadline:(Request.Ms 1e6) () ]
  in
  let rp =
    Scheduler.run
      Config.(default |> with_servers 1 |> with_batching false)
      reqs
  in
  let by_id id =
    Array.to_list rp.Scheduler.rp_records
    |> List.find (fun r -> r.Scheduler.r_req.Request.id = id)
  in
  let late = by_id "late" in
  check "late degraded" true (late.Scheduler.r_outcome = Scheduler.Degraded);
  check "late served as fallback fingerprint" true
    (late.Scheduler.r_fp
     = Request.fingerprint (Request.fallback late.Scheduler.r_req));
  check "late still has a result" true (late.Scheduler.r_result <> None);
  check "slack kept its variant" true
    ((by_id "slack").Scheduler.r_outcome = Scheduler.Served);
  check_int "summary counts one degrade" 1
    rp.Scheduler.rp_summary.Slo.s_degraded

let test_replay_batching () =
  (* Five same-fingerprint requests queued behind a warmer dispatch as
     one batch when batching is on, five when off. *)
  let reqs =
    req ~id:"warm" ~matrix:"banded:300,4" ()
    :: List.init 5 (fun i -> req ~id:(Printf.sprintf "r%d" i) ())
  in
  let run batching =
    (Scheduler.run
       Config.(default |> with_servers 1 |> with_batching batching)
       reqs)
      .Scheduler.rp_summary
  in
  let on = run true and off = run false in
  check "batched dispatch" true (on.Slo.s_batch_max = 5);
  check_int "no batches when off" 0 off.Slo.s_batches;
  (* Batch members share one cache lookup, so hits differ; outcomes
     don't. *)
  check_int "same served count" on.Slo.s_ok off.Slo.s_ok

(* --- Scheduler: served results = direct Driver runs -------------------- *)

let test_replay_matches_driver () =
  let r = req () in
  let rp = Scheduler.run Config.default [ r ] in
  let rec_ = rp.Scheduler.rp_records.(0) in
  let coo = Result.get_ok (Generate.of_spec r.Request.matrix) in
  let cfg =
    Driver.Cfg.make ~engine:r.Request.engine
      ~machine:(Request.machine_of r)
      ~variant:(Option.get (Request.fixed_variant r.Request.variant))
      ()
  in
  let direct = Driver.run cfg (Request.spec r) coo in
  let served = Option.get rec_.Scheduler.r_result in
  check "served counters = direct run" true
    (served.Driver.counters = direct.Driver.counters);
  check "served output = direct run" true
    (served.Driver.out_f = direct.Driver.out_f)

(* --- Tuning modes through the scheduler ------------------------------- *)

(* A [`Tuned] mix under one tuning mode. Both specs are rank-2 so every
   request takes the real tuning path (sweep, model or both). *)
let tuned_mix ~tune_mode ~seed ~n () =
  Mix.hot_cold ~seed ~n
    [ Mix.profile ~variant:`Tuned ~tune_mode "powerlaw:400,5";
      Mix.profile ~variant:`Tuned ~tune_mode "banded:300,4" ]

(* Hybrid serves the sweep's decision: replayed records carry the same
   outcomes and byte-identical execution results as sweep mode. Only the
   decision's bookkeeping differs — fingerprints name the mode, and
   service time charges the extra model pass on misses. *)
let test_hybrid_serves_sweep_decision () =
  let run tune_mode =
    Scheduler.run Config.default (tuned_mix ~tune_mode ~seed:7 ~n:40 ())
  in
  let sw = run `Sweep and hy = run `Hybrid in
  check_int "same record count"
    (Array.length sw.Scheduler.rp_records)
    (Array.length hy.Scheduler.rp_records);
  Array.iteri
    (fun i s ->
      let h = hy.Scheduler.rp_records.(i) in
      check "same outcome" true
        (s.Scheduler.r_outcome = h.Scheduler.r_outcome);
      check "same hit/miss" true (s.Scheduler.r_hit = h.Scheduler.r_hit);
      (* The served artefact is the same code: identical simulated
         counters and output. *)
      (match (s.Scheduler.r_result, h.Scheduler.r_result) with
       | Some a, Some b ->
         check "same counters" true (a.Driver.counters = b.Driver.counters);
         check "same output" true (a.Driver.out_f = b.Driver.out_f)
       | None, None -> ()
       | _ -> Alcotest.fail "served/shed mismatch between modes");
      (* Fingerprints differ only in the mode suffix. *)
      let strip fp =
        match String.rindex_opt fp '|' with
        | Some j -> String.sub fp 0 j
        | None -> fp
      in
      check "same fingerprint modulo mode" true
        (strip s.Scheduler.r_fp = strip h.Scheduler.r_fp))
    sw.Scheduler.rp_records;
  (* Hybrid records the agreement it observed, one verdict per build. *)
  let agree = Registry.find hy.Scheduler.rp_registry "tune.model.agree"
  and disagree =
    Registry.find hy.Scheduler.rp_registry "tune.model.disagree"
  in
  check_int "one verdict per build"
    hy.Scheduler.rp_summary.Slo.s_builds (agree + disagree)

let test_hybrid_replay_jobs_invariant () =
  let reqs = tuned_mix ~tune_mode:`Hybrid ~seed:8 ~n:40 () in
  let run jobs =
    lines (Scheduler.run Config.(with_jobs jobs default) reqs)
  in
  Alcotest.(check (list string)) "hybrid jobs 1 = jobs 4 (byte)" (run 1)
    (run 4)

(* The serve.tune.* counters: sweep runs and model decisions are counted
   per build under the mode that made them, and rollbacks count decisions
   that chose baseline. *)
let test_tune_mode_counters () =
  let run tune_mode =
    Scheduler.run Config.default (tuned_mix ~tune_mode ~seed:9 ~n:30 ())
  in
  let find rp k = Registry.find rp.Scheduler.rp_registry k in
  let sw = run `Sweep in
  let builds = sw.Scheduler.rp_summary.Slo.s_builds in
  check_int "sweep: one sweep per build" builds
    (find sw "serve.tune.sweep_runs");
  check_int "sweep: no model decisions" 0
    (find sw "serve.tune.model_decisions");
  (* banded:300,4 rolls back, powerlaw:400,5 doesn't: both decisions
     visible. *)
  check "sweep: some rollbacks" true (find sw "serve.tune.rollbacks" > 0);
  check "sweep: not all rollbacks" true
    (find sw "serve.tune.rollbacks" < builds);
  let md = run `Model in
  check_int "model: one decision per build"
    md.Scheduler.rp_summary.Slo.s_builds
    (find md "serve.tune.model_decisions");
  check_int "model: no sweeps" 0 (find md "serve.tune.sweep_runs");
  let hy = run `Hybrid in
  let hb = hy.Scheduler.rp_summary.Slo.s_builds in
  check_int "hybrid: sweeps" hb (find hy "serve.tune.sweep_runs");
  check_int "hybrid: model decisions" hb
    (find hy "serve.tune.model_decisions");
  (* The pinned mix is inside the model's calibrated regime. *)
  check_int "hybrid: full agreement" hb (find hy "tune.model.agree")

(* tune_mode round-trips through JSONL and scopes the cache key: it only
   splits fingerprints when there is a tuning decision to make. *)
let test_tune_mode_request_plumbing () =
  List.iter
    (fun tune_mode ->
      let r = req ~variant:`Tuned ~tune_mode () in
      match Request.of_line (Request.to_line r) with
      | Ok r' -> check "tune_mode roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)
    [ `Sweep; `Model; `Hybrid ];
  let tuned = req ~variant:`Tuned () in
  check "tuned: mode splits the key" true
    (Request.fingerprint { tuned with Request.tune_mode = `Model }
     <> Request.fingerprint { tuned with Request.tune_mode = `Sweep });
  let fixed = req ~variant:`Asap () in
  check "fixed variant: mode outside the key" true
    (Request.fingerprint { fixed with Request.tune_mode = `Model }
     = Request.fingerprint { fixed with Request.tune_mode = `Sweep });
  check "unknown mode rejected" true
    (Result.is_error
       (Request.of_line
          {| {"id":"x","kernel":"spmv","matrix":"powerlaw:400,5","format":"csr","variant":"tuned","tune_mode":"oracle"} |}))

(* Driver.Prep reuse: repeated exec on one preparation is byte-stable
   and equals a fresh Driver.run — the property the cache rests on. *)
let test_prep_exec_stable () =
  let coo = Result.get_ok (Generate.of_spec "powerlaw:400,5") in
  let machine = Machine.gracemont_scaled ~hw:Machine.hw_optimized () in
  let cfg =
    Driver.Cfg.make ~machine
      ~variant:(Pipeline.Asap Asap_prefetch.Asap.default) ()
  in
  let spec = Driver.Spmv (Encoding.csr ()) in
  let prep = Driver.Prep.make cfg spec coo in
  let a = Driver.Prep.exec prep in
  let a_out = Option.map Array.copy a.Driver.out_f in
  let a_counters = a.Driver.counters in
  let b = Driver.Prep.exec prep in
  check "exec twice: same counters" true (b.Driver.counters = a_counters);
  check "exec twice: same output" true
    (Option.map Array.copy b.Driver.out_f = a_out);
  let fresh = Driver.run cfg spec coo in
  check "prep = fresh run" true (fresh.Driver.counters = a_counters)

(* --- Router: consistent hashing --------------------------------------- *)

let test_router_stability () =
  let keys = List.init 2000 (Printf.sprintf "artefact|key|%d") in
  let r4 = Router.create ~shards:4 () in
  let r5 = Router.create ~shards:5 () in
  (* Balance: every shard of the 4-ring owns a non-trivial key share. *)
  let counts = Array.make 4 0 in
  List.iter
    (fun k ->
      let s = Router.shard_of r4 k in
      counts.(s) <- counts.(s) + 1)
    keys;
  Array.iteri
    (fun s c ->
      check (Printf.sprintf "shard %d owns keys" s) true (c > 2000 / 16))
    counts;
  (* Stability: growing 4 -> 5 only moves keys onto the new shard, and
     only about 1/5 of them (a modulo hash would reshuffle ~4/5). *)
  let moved =
    List.filter (fun k -> Router.shard_of r4 k <> Router.shard_of r5 k) keys
  in
  List.iter
    (fun k ->
      check "moved keys land on the new shard" true
        (Router.shard_of r5 k = 4))
    moved;
  let frac = float_of_int (List.length moved) /. 2000. in
  check "moved fraction bounded" true (frac > 0.05 && frac < 0.35);
  (* Same (shards, vnodes) -> same ring, and routing is pure. *)
  let r4' = Router.create ~shards:4 () in
  List.iter
    (fun k ->
      check_int "ring is deterministic" (Router.shard_of r4 k)
        (Router.shard_of r4' k))
    keys

(* Routing is part of the record surface (r_home, r_shard), so the exact
   ring positions are pinned: any change to the hash or the ring moves
   these values. *)
let test_router_pinned () =
  let r4 = Router.create ~shards:4 () in
  let r7 = Router.create ~vnodes:8 ~shards:7 () in
  Alcotest.(check (list (pair int int)))
    "pinned shard_of"
    [ (1, 1); (3, 1); (3, 5); (0, 0); (0, 0); (2, 1) ]
    (List.map
       (fun k -> (Router.shard_of r4 k, Router.shard_of r7 k))
       [ ""; "a"; "spmv|csr|powerlaw:400,5|optimized|asap|bytecode";
         "spmv|csr|powerlaw:400,5|optimized|asap|bytecode|v3";
         "ttv|csf|tensor3:12,12,12,400|optimized|baseline|bytecode";
         String.make 300 'z' ]);
  Alcotest.(check (list int))
    "pinned hash"
    [ 3445288215246350630; 189900332573052507; 3266231067139669491;
      3139340579925872858 ]
    (List.map Router.hash [ ""; "a"; "shard:3:17"; String.make 300 'z' ])

(* --- Fleet: determinism, stealing, quotas ------------------------------ *)

let fleet_mix ~seed ~n () =
  Mix.hot_cold ~mean_gap_ms:0.002 ~seed ~n
    ~tenants:[ ("alpha", 3.); ("beta", 1.) ]
    (small_profiles ())

(* Records, summaries and the registry of a fleet replay are identical
   at any [jobs]; the mix includes specialized and tuned profiles, so the
   counters summed over the build list are covered under four shards.
   [serve.spec.build_ns] is host time and is left out. *)
let test_fleet_jobs_invariant () =
  let reqs =
    Mix.hot_cold ~mean_gap_ms:0.002 ~seed:12 ~n:60
      ~tenants:[ ("alpha", 3.); ("beta", 1.) ]
      (small_profiles ()
       @ [ Mix.profile ~specialize:true ~kernel:`Spmm "uniform:300,1200";
           Mix.profile ~specialize:true ~variant:`Tuned "powerlaw:400,5" ])
  in
  let config =
    Config.(
      default |> with_shards 4 |> with_quotas [ ("alpha", 24) ])
  in
  let run jobs = Scheduler.run (Config.with_jobs jobs config) reqs in
  let registry rp =
    Registry.to_assoc rp.Scheduler.rp_registry
    |> List.filter (fun (k, _) -> k <> "serve.spec.build_ns")
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  in
  let summary rp = Jsonu.to_string (Slo.to_json rp.Scheduler.rp_summary) in
  let rp1 = run 1 in
  check "specialized builds in the mix" true
    (Registry.find rp1.Scheduler.rp_registry "serve.spec.miss" > 0);
  List.iter
    (fun jobs ->
      let rp = run jobs in
      let at = Printf.sprintf "fleet jobs 1 = jobs %d" jobs in
      Alcotest.(check (list string)) (at ^ " (byte)") (lines rp1) (lines rp);
      Alcotest.(check string) (at ^ ": summary") (summary rp1) (summary rp);
      check (at ^ ": shard summaries") true
        (rp1.Scheduler.rp_shards = rp.Scheduler.rp_shards);
      Alcotest.(check (list string)) (at ^ ": registry") (registry rp1)
        (registry rp))
    [ 2; 4 ];
  (* Sanity: the fleet actually fanned out. *)
  let active =
    Array.to_list rp1.Scheduler.rp_shards
    |> List.filter (fun sh -> sh.Slo.sh_ok + sh.Slo.sh_degraded > 0)
  in
  check "several shards served" true (List.length active >= 2)

let test_work_stealing () =
  (* Twenty same-fingerprint requests all route to one home shard; with
     stealing on, the other three shards' idle servers drain it. *)
  let reqs =
    List.init 20 (fun i ->
        req
          ~id:(Printf.sprintf "r%02d" i)
          ~matrix:"banded:300,4"
          ~arrival:(0.0001 *. float_of_int i)
          ())
  in
  let run stealing =
    Scheduler.run
      Config.(
        default |> with_shards 4 |> with_servers 1 |> with_batching false
        |> with_stealing stealing)
      reqs
  in
  let on = run true and off = run false in
  check "steals happen" true (on.Scheduler.rp_summary.Slo.s_steals > 0);
  check_int "registry counts steals" on.Scheduler.rp_summary.Slo.s_steals
    (Registry.find on.Scheduler.rp_registry "serve.steal.count");
  check "stolen records marked" true
    (Array.exists
       (fun (r : Scheduler.record) ->
         r.Scheduler.r_stolen && r.Scheduler.r_shard <> r.Scheduler.r_home)
       on.Scheduler.rp_records);
  (* steal.in / steal.out balance across the fleet. *)
  check_int "steal in = steal out"
    (Registry.sum_prefix on.Scheduler.rp_registry ~leaf:"steal.in"
       "serve.shard.")
    (Registry.sum_prefix on.Scheduler.rp_registry ~leaf:"steal.out"
       "serve.shard.");
  check_int "no steals when disabled" 0 off.Scheduler.rp_summary.Slo.s_steals;
  Array.iter
    (fun (r : Scheduler.record) ->
      check "stealing off: served at home" true
        (r.Scheduler.r_shard = r.Scheduler.r_home))
    off.Scheduler.rp_records;
  (* Both runs serve everything — stealing changes placement, not
     outcomes, for this unloaded trace. *)
  check_int "same served count" on.Scheduler.rp_summary.Slo.s_ok
    off.Scheduler.rp_summary.Slo.s_ok

let test_tenant_quota () =
  (* Six simultaneous arrivals of tenant a against a quota of 1: the
     first queues, the other five shed at admission; tenant b is
     unconstrained. *)
  let reqs =
    List.init 6 (fun i -> req ~id:(Printf.sprintf "a%d" i) ~tenant:"a" ())
    @ [ req ~id:"b0" ~tenant:"b" (); req ~id:"b1" ~tenant:"b" () ]
  in
  let rp =
    Scheduler.run
      Config.(
        default |> with_servers 1 |> with_batching false
        |> with_quotas [ ("a", 1) ])
      reqs
  in
  let find = Registry.find rp.Scheduler.rp_registry in
  check_int "a served" 1 (find "serve.tenant.a.ok");
  check_int "a quota-shed" 5 (find "serve.tenant.a.quota_shed");
  check_int "b served" 2 (find "serve.tenant.b.ok");
  check_int "b quota-shed" 0 (find "serve.tenant.b.quota_shed");
  check_int "fleet shed" 5 rp.Scheduler.rp_summary.Slo.s_shed;
  (* quota_of resolves overrides before the default. *)
  let c = Config.(default |> with_quota (Some 7) |> with_quotas [ ("a", 1) ]) in
  check "override wins" true (Config.quota_of c "a" = Some 1);
  check "default applies" true (Config.quota_of c "z" = Some 7)

let test_tenant_quota_zipf () =
  (* A skewed two-tenant Zipf burst: the heavy tenant exhausts its quota
     while the light tenant is never quota- or queue-shed. *)
  let reqs =
    Mix.hot_cold ~mean_gap_ms:0.0005 ~seed:13 ~n:80
      ~tenants:[ ("heavy", 8.); ("light", 1.) ]
      (small_profiles ())
  in
  check "both tenants drawn" true
    (List.exists (fun r -> r.Request.tenant = "light") reqs
     && List.exists (fun r -> r.Request.tenant = "heavy") reqs);
  let rp =
    Scheduler.run
      Config.(
        default |> with_servers 1 |> with_batching false
        |> with_queue_limit 128
        |> with_quotas [ ("heavy", 2) ])
      reqs
  in
  let find = Registry.find rp.Scheduler.rp_registry in
  check "heavy quota-shed" true (find "serve.tenant.heavy.quota_shed" > 0);
  check_int "light never quota-shed" 0 (find "serve.tenant.light.quota_shed");
  check_int "light never shed" 0 (find "serve.tenant.light.shed");
  check "light served" true (find "serve.tenant.light.ok" > 0);
  check_int "tenant sheds sum to fleet"
    rp.Scheduler.rp_summary.Slo.s_shed
    (find "serve.tenant.heavy.shed" + find "serve.tenant.light.shed")

let test_deadline_policies () =
  let reqs =
    [ req ~id:"warm" ();
      req ~id:"late" ~deadline:(Request.Ms 1e-6) ();
      req ~id:"slack" ~deadline:(Request.Ms 1e6) () ]
  in
  let run policy =
    Scheduler.run
      Config.(
        default |> with_servers 1 |> with_batching false
        |> with_deadline_policy policy)
      reqs
  in
  let by_id rp id =
    Array.to_list rp.Scheduler.rp_records
    |> List.find (fun r -> r.Scheduler.r_req.Request.id = id)
  in
  (* Drop: the expired request sheds at dispatch time — no result, and
     its finish is the dispatch instant, not its arrival. *)
  let dr = run Config.Drop in
  let late = by_id dr "late" in
  check "drop: late shed" true (late.Scheduler.r_outcome = Scheduler.Shed);
  check "drop: no result" true (late.Scheduler.r_result = None);
  check "drop: finish at dispatch" true
    (late.Scheduler.r_finish_ms > late.Scheduler.r_req.Request.arrival_ms);
  check "drop: slack served" true
    ((by_id dr "slack").Scheduler.r_outcome = Scheduler.Served);
  check_int "drop: one shed" 1 dr.Scheduler.rp_summary.Slo.s_shed;
  (* Ignore: the expired request is served with its requested variant. *)
  let ig = run Config.Ignore in
  let late = by_id ig "late" in
  check "ignore: late served" true
    (late.Scheduler.r_outcome = Scheduler.Served);
  check "ignore: primary fingerprint" true
    (late.Scheduler.r_fp = Request.fingerprint late.Scheduler.r_req);
  check_int "ignore: nothing degraded" 0
    ig.Scheduler.rp_summary.Slo.s_degraded

let test_derived_aggregates () =
  (* Fleet totals in the registry are derived from the per-shard
     counters; the sum_prefix fold must agree with both the summary and
     a manual per-shard sum. *)
  let rp =
    Scheduler.run
      Config.(with_shards 4 default)
      (fleet_mix ~seed:14 ~n:50 ())
  in
  let reg = rp.Scheduler.rp_registry in
  let manual leaf =
    List.fold_left
      (fun acc s ->
        acc + Registry.find reg (Printf.sprintf "serve.shard.%d.%s" s leaf))
      0 [ 0; 1; 2; 3 ]
  in
  List.iter
    (fun (leaf, fleet_name) ->
      let derived = Registry.sum_prefix reg ~leaf "serve.shard." in
      check_int ("derived = manual " ^ leaf) (manual leaf) derived;
      check_int ("derived = fleet " ^ fleet_name) derived
        (Registry.find reg fleet_name))
    [ ("ok", "serve.ok"); ("degraded", "serve.degraded");
      ("shed", "serve.shed"); ("cache.hit", "serve.cache.hit");
      ("cache.miss", "serve.cache.miss");
      ("batch.count", "serve.batch.count") ];
  check_int "summary ok = derived ok" rp.Scheduler.rp_summary.Slo.s_ok
    (Registry.find reg "serve.ok")

(* --- Slo: percentile estimator ----------------------------------------- *)

let test_percentile_resolution () =
  check_int "p50 needs 2" 2 (Slo.min_samples ~p:50.);
  check_int "p95 needs 20" 20 (Slo.min_samples ~p:95.);
  check_int "p99 needs 100" 100 (Slo.min_samples ~p:99.);
  check_int "p99.9 needs 1000" 1000 (Slo.min_samples ~p:99.9);
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  check "p99 unresolvable at 99" true
    (Slo.percentile_opt (xs 99) ~p:99. = None);
  check "p99 resolvable at 100" true
    (Slo.percentile_opt (xs 100) ~p:99. = Some 99.);
  check "p99.9 unresolvable at 100" true
    (Slo.percentile_opt (xs 100) ~p:99.9 = None);
  check "tiny sample has no p50" true
    (Slo.percentile_opt [| 4.2 |] ~p:50. = None);
  (* The raw estimator still answers (degenerately) on tiny samples. *)
  check "raw percentile degenerates to max" true
    (Slo.percentile [| 4.2 |] ~p:99. = 4.2);
  (try
     ignore (Slo.min_samples ~p:100.);
     Alcotest.fail "accepted p = 100"
   with Invalid_argument _ -> ())

(* A summary reads its quantiles off one sorted copy of the sample; they
   must equal the standalone estimators on the same array, and those
   must equal nearest rank over a polymorphic-compare sort. Sizes
   straddle every rank-resolution threshold; the narrow value range
   forces duplicates. *)
let qcheck_summary_percentiles =
  let reference xs ~p =
    let n = Array.length xs in
    if n = 0 then 0.
    else begin
      let s = Array.copy xs in
      Array.sort compare s;
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      s.(max 0 (min (n - 1) (rank - 1)))
    end
  in
  let gen =
    QCheck2.Gen.(
      let* n = oneofl [ 0; 1; 2; 99; 100; 999; 1000 ] in
      let* range = int_range 1 40 in
      array_size (pure n)
        (map (fun k -> 0.125 *. float_of_int (k - (range / 2))) (int_range 0 range)))
  in
  QCheck2.Test.make ~count:80 ~name:"summary percentiles = Slo.percentile" gen
    (fun xs ->
      let before = Array.copy xs in
      let s =
        Slo.make ~latencies_ms:xs ~ok:0 ~degraded:0 ~shed:0 ~hits:0 ~misses:0
          ~evictions:0 ~batches:0 ~batch_max:0 ~queue_peak:0 ~inflight_peak:0
          ~builds:0 ~steals:0 ~makespan_ms:0. ()
      in
      let sh =
        Slo.shard_make ~index:0 ~latencies_ms:xs ~ok:0 ~degraded:0 ~shed:0
          ~hits:0 ~misses:0 ~evictions:0 ~batches:0 ~batch_max:0 ~queue_peak:0
          ~steals_in:0 ~steals_out:0 ()
      in
      let pc p = Slo.percentile xs ~p and po p = Slo.percentile_opt xs ~p in
      s.Slo.s_p50_ms = pc 50. && s.Slo.s_p95_ms = pc 95.
      && s.Slo.s_p99_ms = po 99. && s.Slo.s_p999_ms = po 99.9
      && sh.Slo.sh_p50_ms = po 50. && sh.Slo.sh_p95_ms = po 95.
      && sh.Slo.sh_p99_ms = po 99. && sh.Slo.sh_p999_ms = po 99.9
      && List.for_all (fun p -> pc p = reference xs ~p) [ 50.; 95.; 99.; 99.9 ]
      && xs = before)

(* --- Shard queue ------------------------------------------------------- *)

let test_shard_queue () =
  let module Shard = Asap_serve.Shard in
  let sh = Shard.create ~index:0 ~servers:1 ~cache_capacity:0 ~queue_limit:4 in
  let rec drain acc =
    if sh.Shard.qlen = 0 then List.rev acc else drain (Shard.take sh :: acc)
  in
  List.iter (Shard.enqueue sh) [ 10; 11; 12; 13 ];
  check "full at queue_limit" true (Shard.full sh);
  (try
     Shard.enqueue sh 14;
     Alcotest.fail "enqueued past queue_limit"
   with Invalid_argument _ -> ());
  check_int "qlen" 4 sh.Shard.qlen;
  check_int "head is the oldest" 10 (Shard.head sh);
  check_int "take pops the head" 10 (Shard.take sh);
  check "no longer full" false (Shard.full sh);
  (* 14 wraps into the ring slot 10 vacated; the queue is 11 12 13 14. *)
  Shard.enqueue sh 14;
  check_int "peak" 4 sh.Shard.queue_peak;
  Alcotest.(check (list int))
    "taken in FIFO order" [ 12; 14 ]
    (Shard.take_matching sh (fun i -> i mod 2 = 0));
  check_int "qlen after take_matching" 2 sh.Shard.qlen;
  Shard.enqueue sh 15;
  Shard.enqueue sh 16;
  Alcotest.(check (list int))
    "kept in FIFO order, new arrivals behind" [ 11; 13; 15; 16 ] (drain []);
  check_int "peak survives draining" 4 sh.Shard.queue_peak;
  Alcotest.(check (list int))
    "take_matching on empty" [] (Shard.take_matching sh (fun _ -> true));
  try
    ignore (Shard.head sh);
    Alcotest.fail "head of an empty queue"
  with Invalid_argument _ -> ()

let test_config_validate () =
  List.iter
    (fun c ->
      try
        Config.validate c;
        Alcotest.fail "accepted invalid config"
      with Invalid_argument _ -> ())
    [ Config.(with_shards 0 default);
      Config.(with_servers 0 default);
      Config.(with_queue_limit 0 default);
      Config.(with_cache_capacity (-1) default);
      Config.(with_jobs 0 default);
      Config.(with_quota (Some (-1)) default);
      Config.(with_quotas [ ("a", -2) ] default) ];
  Config.validate Config.default

(* --- Mix: tenants ------------------------------------------------------ *)

let test_mix_tenants () =
  (* Fewer than two tenants consume no RNG draw: the request stream is
     byte-identical to the legacy no-tenant mix, tenant field aside. *)
  let plain = Mix.hot_cold ~seed:15 ~n:30 (small_profiles ()) in
  let one =
    Mix.hot_cold ~seed:15 ~n:30 ~tenants:[ ("acme", 1.) ] (small_profiles ())
  in
  List.iter2
    (fun p o ->
      check "single tenant stamps only the tenant" true
        (p = { o with Request.tenant = Request.default_tenant });
      check "tenant stamped" true (o.Request.tenant = "acme"))
    plain one;
  (* Two-tenant draws are deterministic per seed. *)
  let two () =
    Mix.hot_cold ~seed:16 ~n:30
      ~tenants:[ ("a", 3.); ("b", 1.) ]
      (small_profiles ())
  in
  check "two-tenant mix reproducible" true (two () = two ());
  (try
     ignore
       (Mix.hot_cold ~seed:1 ~n:1 ~tenants:[ ("a", 0.) ] (small_profiles ()));
     Alcotest.fail "accepted zero tenant weight"
   with Invalid_argument _ -> ())

(* --- Streaming updates ------------------------------------------------- *)

let upd ?(id = "u0") ?(matrix = "powerlaw:400,5") ?(at = 0.) deltas
    : Request.Update.t =
  { Request.Update.u_id = id; u_matrix = matrix; u_at_ms = at;
    u_deltas = Array.of_list deltas }

let contains = Astring_contains.contains

let with_jsonl lines f =
  let path = Filename.temp_file "serve_items" ".jsonl" in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_update_jsonl () =
  let u = upd ~id:"u7" ~at:1.25 [ (3, 4, 0.5); (0, 0, -1.0) ] in
  (match Request.item_of_line (Request.Update.to_line u) with
   | Ok (Request.Up u') -> check "update line roundtrip" true (u = u')
   | Ok (Request.Req _) -> Alcotest.fail "update parsed as a request"
   | Error e -> Alcotest.fail e);
  (match Request.item_of_line (Request.to_line (req ())) with
   | Ok (Request.Req _) -> ()
   | _ -> Alcotest.fail "request line did not dispatch as Req");
  (* Malformed deltas are rejected with the 1-based delta position. *)
  (match
     Request.item_of_line
       {| {"kind":"update","id":"u1","matrix":"m",
           "deltas":[[0,0,1.0],[1,-2,3.0]]} |}
   with
   | Error e -> check "bad delta is positional" true (contains e "delta 2")
   | Ok _ -> Alcotest.fail "accepted a negative delta coordinate");
  (* Request.load is a request-only stream: an update line is an error
     at its 1-based line, pointing at load_items. *)
  let rline = Request.to_line (req ()) in
  let uline = Request.Update.to_line u in
  with_jsonl [ rline; uline ] (fun path ->
      (match Request.load path with
       | Ok _ -> Alcotest.fail "Request.load accepted an update line"
       | Error e ->
         check "load names the kind" true (contains e "request-only");
         check "load points at line 2" true (contains e (path ^ ":2")));
      match Request.load_items path with
      | Error e -> Alcotest.fail e
      | Ok items ->
        let rs, us = Request.split_items items in
        check_int "one request" 1 (List.length rs);
        check_int "one update" 1 (List.length us));
  (* Unknown machine presets fail at ingest, with the line position. *)
  with_jsonl
    [ {| {"id":"x","kernel":"spmv","matrix":"powerlaw:400,5","machine":"warp9"} |} ]
    (fun path ->
      match Request.load path with
      | Ok _ -> Alcotest.fail "ingested an unknown machine preset"
      | Error e ->
        check "machine error names the preset" true (contains e "warp9");
        check "machine error is positional" true (contains e (path ^ ":1")))

let test_update_apply () =
  (* Set semantics over a COO with a duplicate entry: the delta must
     replace the summed value, later deltas to one coordinate win, and
     fresh coordinates append. *)
  let coo =
    Coo.of_triples ~rows:4 ~cols:4 [ (0, 0, 1.); (1, 2, 5.); (0, 0, 2.) ]
  in
  let u = upd ~matrix:"m" [ (0, 0, 9.); (3, 3, 7.); (3, 3, 8.) ] in
  let d = Coo.to_dense (Coo.sorted_dedup (Request.Update.apply u coo)) in
  check "existing coordinate set, duplicates collapsed" true (d.(0) = 9.);
  check "untouched entry survives" true (d.((1 * 4) + 2) = 5.);
  check "fresh coordinate appended, last delta wins" true
    (d.((3 * 4) + 3) = 8.);
  (try
     ignore (Request.Update.apply (upd ~matrix:"m" [ (4, 0, 1.) ]) coo);
     Alcotest.fail "accepted an out-of-bounds delta"
   with Invalid_argument _ -> ())

let test_streaming_updates () =
  let profiles = small_profiles () in
  let reqs = Mix.hot_cold ~seed:31 ~n:40 profiles in
  let updates = Mix.update_stream ~seed:31 ~n:6 ~mean_gap_ms:0.3 profiles in
  let run jobs =
    Scheduler.run ~updates Config.(with_jobs jobs default) reqs
  in
  let a = run 1 and b = run 4 in
  check "update replay byte-identical across jobs" true (lines a = lines b);
  check "invalidations fired" true
    (a.Scheduler.rp_summary.Slo.s_invalidated > 0);
  check_int "no stale hits" 0 a.Scheduler.rp_summary.Slo.s_stale_hits;
  check "a versioned fingerprint was served" true
    (Array.exists
       (fun r -> contains r.Scheduler.r_fp "|v")
       a.Scheduler.rp_records);
  check "registry counts invalidations" true
    (Registry.find a.Scheduler.rp_registry "serve.cache.invalidated" > 0);
  check_int "registry stale-hit stays zero" 0
    (Registry.find a.Scheduler.rp_registry "serve.cache.stale_hit");
  (* An empty update stream is byte-identical to the pre-update path. *)
  let plain = Scheduler.run Config.default reqs in
  let plain2 = Scheduler.run ~updates:[] Config.default reqs in
  check "no updates = legacy replay" true (lines plain = lines plain2);
  check_int "no invalidations without updates" 0
    plain.Scheduler.rp_summary.Slo.s_invalidated

let test_update_versioning_order () =
  (* Two identical requests around one update: the earlier keeps the
     suffix-free v0 key, the later is served from the updated matrix
     under a version-suffixed key, and the v0 cache entry is dropped. *)
  let r0 = req ~id:"a" ~arrival:0.0 () in
  let r1 = req ~id:"b" ~arrival:2.0 () in
  let u = upd ~at:1.0 [ (0, 0, 1234.5) ] in
  let rp = Scheduler.run ~updates:[ u ] Config.default [ r0; r1 ] in
  let rec0 = rp.Scheduler.rp_records.(0)
  and rec1 = rp.Scheduler.rp_records.(1) in
  check "pre-update arrival keeps the unsuffixed key" true
    (not (contains rec0.Scheduler.r_fp "|v"));
  check "post-update arrival versioned" true
    (contains rec1.Scheduler.r_fp "|v1");
  check "the update invalidated the v0 entry" true
    (rp.Scheduler.rp_summary.Slo.s_invalidated >= 1);
  check_int "no stale hits" 0 rp.Scheduler.rp_summary.Slo.s_stale_hits;
  (* The served outputs must actually differ — the delta reached the
     kernel, not just the cache key. *)
  match (rec0.Scheduler.r_result, rec1.Scheduler.r_result) with
  | Some a, Some b ->
    check "update changed the served result" true
      (a.Driver.out_f <> b.Driver.out_f)
  | _ -> Alcotest.fail "expected both requests served"

(* --- Golden replay -------------------------------------------------------- *)

(* One seeded fleet replay that exercises every scheduling path at once:
   4 shards with one server each, a tight queue (overload shedding), a
   tenant quota, stealing, batching, streaming-update invalidation, and
   requests with short, long and no deadlines. The digests below pin the
   exact bytes of every record line, the fleet and per-shard summaries,
   the registry and the Chrome trace under each deadline policy, so a
   change to the scheduler's bookkeeping that moves any observable byte
   fails here — the jobs-invariance tests only compare runs of one
   build against each other. *)
let golden_replay policy =
  let profiles = small_profiles () in
  let reqs =
    Mix.hot_cold ~mean_gap_ms:0.002 ~seed:41 ~n:240
      ~tenants:[ ("alpha", 3.); ("beta", 1.); ("gamma", 1.) ]
      profiles
    |> List.mapi (fun i r ->
           let deadline =
             match i mod 3 with
             | 0 -> Some (Request.Ms 0.001)
             | 1 -> Some (Request.Ms 0.2)
             | _ -> None
           in
           { r with Request.deadline })
  in
  let updates = Mix.update_stream ~seed:41 ~n:6 ~mean_gap_ms:0.06 profiles in
  let config =
    Config.(
      default |> with_shards 4 |> with_servers 1 |> with_queue_limit 6
      |> with_quotas [ ("alpha", 9) ] |> with_deadline_policy policy)
  in
  let trace = Asap_obs.Chrome.create () in
  let rp = Scheduler.run ~trace ~updates config reqs in
  (rp, trace)

let golden_digests (rp, trace) =
  let md5 parts = Digest.to_hex (Digest.string (String.concat "\n" parts)) in
  let json = Asap_obs.Jsonu.to_string in
  [ ("records", md5 (lines rp));
    ("summary",
     md5
       (json (Slo.to_json rp.Scheduler.rp_summary)
        :: Array.to_list
             (Array.map
                (fun sh -> json (Slo.shard_to_json sh))
                rp.Scheduler.rp_shards)));
    ("registry",
     md5
       (List.map
          (fun (k, v) -> Printf.sprintf "%s=%d" k v)
          (Registry.to_assoc rp.Scheduler.rp_registry)));
    ("trace", md5 [ Asap_obs.Chrome.to_string trace ]) ]

let test_golden_replay () =
  List.iter
    (fun (policy, pinned) ->
      let ((rp, _) as run) = golden_replay policy in
      let name = Config.deadline_policy_to_string policy in
      (* The trace reaches every path it is meant to pin. *)
      let s = rp.Scheduler.rp_summary in
      let find = Registry.find rp.Scheduler.rp_registry in
      check (name ^ ": steals") true (s.Slo.s_steals > 0);
      check (name ^ ": batches") true (s.Slo.s_batches > 0);
      check (name ^ ": sheds") true (s.Slo.s_shed > 0);
      check (name ^ ": quota sheds") true
        (find "serve.tenant.alpha.quota_shed" > 0);
      check (name ^ ": invalidations") true (s.Slo.s_invalidated > 0);
      check (name ^ ": every shard served") true
        (Array.for_all
           (fun sh -> sh.Slo.sh_ok + sh.Slo.sh_degraded > 0)
           rp.Scheduler.rp_shards);
      (match policy with
       | Config.Degrade -> check "degrade: degraded" true (s.Slo.s_degraded > 0)
       | Config.Drop | Config.Ignore ->
         check_int (name ^ ": none degraded") 0 s.Slo.s_degraded);
      Alcotest.(check (list (pair string string)))
        (name ^ ": digests") pinned (golden_digests run))
    [ ( Config.Degrade,
        [ ("records", "ac7ee86238f4c051b343f661d41de0cd");
          ("summary", "d0efa3b935e04ab72886669e24f5a8a7");
          ("registry", "03adf7e9efde21a002680026ef58f71c");
          ("trace", "2a5768c52e7e4be6b8c3a6bad742273d") ] );
      ( Config.Drop,
        [ ("records", "12a7206d983dc687965b2a2abf70d666");
          ("summary", "a485553fee3384747e387ba8d9cf6ae6");
          ("registry", "3e103ef992ad09f27505f15607b78d4c");
          ("trace", "0dc48aee5633dafe86c9545942bfd2c5") ] );
      ( Config.Ignore,
        [ ("records", "5451e0422ad5caa91a06ced7101a2784");
          ("summary", "bc02072fda185b6d0a54c2f94a0727a0");
          ("registry", "14325d891ff45a779b1b06d4d26a81c1");
          ("trace", "42431d7ef20edcca456aa0977dcae654") ] ) ]

let suite =
  [ Alcotest.test_case "golden replay digests" `Quick test_golden_replay;
    Alcotest.test_case "request jsonl roundtrip" `Quick
      test_request_roundtrip;
    Alcotest.test_case "update jsonl + ingest validation" `Quick
      test_update_jsonl;
    Alcotest.test_case "update apply semantics" `Quick test_update_apply;
    Alcotest.test_case "streaming updates replay" `Slow
      test_streaming_updates;
    Alcotest.test_case "update versioning order" `Quick
      test_update_versioning_order;
    Alcotest.test_case "request fingerprint" `Quick test_request_fingerprint;
    Alcotest.test_case "request errors" `Quick test_request_errors;
    Alcotest.test_case "request pipeline" `Quick test_request_pipeline;
    Alcotest.test_case "request override" `Quick test_request_override;
    Alcotest.test_case "replay tenant pipelines" `Slow
      test_replay_tenant_pipelines;
    Alcotest.test_case "lru" `Quick test_lru;
    Alcotest.test_case "replay deterministic across jobs" `Slow
      test_replay_deterministic_across_jobs;
    Alcotest.test_case "replay cache counters" `Slow
      test_replay_cache_counters;
    Alcotest.test_case "replay eviction" `Quick test_replay_eviction;
    Alcotest.test_case "replay shedding" `Quick test_replay_shedding;
    Alcotest.test_case "replay deadline degrades" `Quick
      test_replay_deadline_degrades;
    Alcotest.test_case "replay batching" `Quick test_replay_batching;
    Alcotest.test_case "replay matches driver" `Quick
      test_replay_matches_driver;
    Alcotest.test_case "hybrid serves sweep decision" `Slow
      test_hybrid_serves_sweep_decision;
    Alcotest.test_case "hybrid replay jobs-invariant" `Slow
      test_hybrid_replay_jobs_invariant;
    Alcotest.test_case "tune-mode counters" `Slow test_tune_mode_counters;
    Alcotest.test_case "tune-mode request plumbing" `Quick
      test_tune_mode_request_plumbing;
    Alcotest.test_case "prep exec stable" `Quick test_prep_exec_stable;
    Alcotest.test_case "router stability" `Quick test_router_stability;
    Alcotest.test_case "router pinned" `Quick test_router_pinned;
    Alcotest.test_case "fleet jobs-invariant" `Slow test_fleet_jobs_invariant;
    Alcotest.test_case "work stealing" `Quick test_work_stealing;
    Alcotest.test_case "tenant quota" `Quick test_tenant_quota;
    Alcotest.test_case "tenant quota under zipf" `Slow test_tenant_quota_zipf;
    Alcotest.test_case "deadline policies" `Quick test_deadline_policies;
    Alcotest.test_case "derived fleet aggregates" `Slow
      test_derived_aggregates;
    Alcotest.test_case "percentile resolution" `Quick
      test_percentile_resolution;
    QCheck_alcotest.to_alcotest qcheck_summary_percentiles;
    Alcotest.test_case "shard queue" `Quick test_shard_queue;
    Alcotest.test_case "config validate" `Quick test_config_validate;
    Alcotest.test_case "mix tenants" `Quick test_mix_tenants ]
