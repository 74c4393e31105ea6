(* The two serving workloads: open-loop request traces in virtual time,
   replayed through Scheduler.run on a 4-shard fleet. An op is one
   replay; its work units are its requests.

   serve-hot repeats a few artefacts, so the cache absorbs nearly every
   request: 12 builds per replay, and the scheduler's virtual-time loop
   (settle) costs about as much host time as they do. A nominal replay
   at about 80% of fleet capacity gives latency; an overload replay
   gives capacity, shedding, stealing and batching.

   serve-churn spreads traffic over many artefacts and updates matrices
   while they are served, so entries are evicted and invalidated and
   builds (tuning, packing, cold runs) dominate. A cache or pack-memo
   change that helps serve-hot but costs rebuilds shows here. *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Driver = Asap_core.Driver
module Pipeline = Asap_core.Pipeline
module Request = Asap_serve.Request
module Mix = Asap_serve.Mix
module Scheduler = Asap_serve.Scheduler
module Config = Asap_serve.Config
module Slo = Asap_serve.Slo
module Build = Asap_serve.Build
module Select = Asap_model.Select
module Tuning = Asap_core.Tuning
module Registry = Asap_obs.Registry
module Jsonu = Asap_obs.Jsonu
module W = Workload

type replay = {
  config : Config.t;
  requests : Request.t list;
  updates : Request.Update.t list;  (* in fire order *)
  last : Scheduler.replayed option ref;
}

let replay ?(updates = []) config requests =
  let updates =
    List.stable_sort
      (fun a b -> compare a.Request.Update.u_at_ms b.Request.Update.u_at_ms)
      updates
  in
  { config; requests; updates; last = ref None }

(* The version of its matrix a request saw: how many updates to that
   matrix fired at or before its arrival. *)
let version rep (r : Request.t) =
  List.fold_left
    (fun n u ->
      if
        String.equal u.Request.Update.u_matrix r.Request.matrix
        && u.Request.Update.u_at_ms <= r.Request.arrival_ms
      then n + 1
      else n)
    0 rep.updates

(* Matrices by (spec, version), memoised as the scheduler's build pass
   does: each spec is generated once, and version [v] is version [v - 1]
   with the [v]-th update to that matrix applied. [generate] wraps the
   work (a span, in traced runs). *)
let matrices ?(generate = fun f -> f ()) rep =
  let tbl = Hashtbl.create 16 in
  let rec get (spec, v) =
    match Hashtbl.find_opt tbl (spec, v) with
    | Some coo -> coo
    | None ->
      let coo =
        if v = 0 then
          generate (fun () ->
              match Asap_workloads.Generate.of_spec spec with
              | Ok coo -> coo
              | Error e -> invalid_arg ("benchmark: " ^ e))
        else begin
          let prev = get (spec, v - 1) in
          let u =
            List.nth
              (List.filter
                 (fun u -> String.equal u.Request.Update.u_matrix spec)
                 rep.updates)
              (v - 1)
          in
          generate (fun () -> Request.Update.apply u prev)
        end
      in
      Hashtbl.add tbl (spec, v) coo;
      coo
  in
  get

type artefact = {
  a_req : Request.t;         (* as built: a degraded request's fallback *)
  a_version : int;
  a_record : Scheduler.record;  (* the first record that served it *)
  a_served : int;            (* records it served *)
}

(* The distinct artefacts a replay served, by fingerprint. *)
let served rep (rp : Scheduler.replayed) : artefact list =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (r : Scheduler.record) ->
      match r.Scheduler.r_outcome with
      | Scheduler.Shed -> ()
      | outcome ->
        (match Hashtbl.find_opt tbl r.Scheduler.r_fp with
         | Some a ->
           Hashtbl.replace tbl r.Scheduler.r_fp
             { a with a_served = a.a_served + 1 }
         | None ->
           let req = r.Scheduler.r_req in
           Hashtbl.add tbl r.Scheduler.r_fp
             { a_req =
                 (if outcome = Scheduler.Degraded then Request.fallback req
                  else req);
               a_version = version rep req; a_record = r; a_served = 1 }))
    rp.Scheduler.rp_records;
  Hashtbl.fold (fun fp a acc -> (fp, a) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map snd

let result_of (a : artefact) = Option.get a.a_record.Scheduler.r_result

(* An artefact as a kernel run, for the oracle, which only reads its
   kernel, matrix and (default) dense sizes. *)
let kernel_op (a : artefact) coo : Kernel_op.t =
  { Kernel_op.spec = Request.spec a.a_req; coo;
    cfg =
      Driver.Cfg.make ~machine:(Request.machine_of a.a_req)
        ~variant:Pipeline.Baseline () }

let counter rp name =
  Option.value ~default:0 (Registry.get rp.Scheduler.rp_registry name)

(* Each distinct served artefact's output against the dense reference,
   plus the invariant that no hit served a wrong-version entry. Failed
   units are the requests served by a failing artefact. *)
let check rep rp =
  let coo = matrices rep in
  List.fold_left
    (fun fails a ->
      let err =
        try
          Kernel_op.check
            (kernel_op a (coo (a.a_req.Request.matrix, a.a_version)))
            (result_of a)
        with Invalid_argument _ -> infinity
      in
      if err > W.tolerance then fails + a.a_served else fails)
    (counter rp "serve.cache.stale_hit")
    (served rep rp)

let digest (rp : Scheduler.replayed) =
  let finish =
    Array.fold_left
      (fun acc r -> acc +. r.Scheduler.r_finish_ms)
      0. rp.Scheduler.rp_records
  in
  Printf.sprintf "%s/%h"
    (Jsonu.to_string (Slo.to_json rp.Scheduler.rp_summary))
    finish

let finish rep rp extra_fails =
  rep.last := Some rp;
  { W.digest = digest rp;
    check = (fun () -> check rep rp + extra_fails) }

(* Packs once per (spec, version, format) where the scheduler's build
   pass shares one — rank-2 operands of the matrix kernels — and [None]
   elsewhere, where the build packs for itself. *)
let packer pack =
  let tbl = Hashtbl.create 16 in
  fun (req : Request.t) v coo ->
    match
      Request.encoding_of_format req.Request.kernel req.Request.format
    with
    | Some enc when req.Request.kernel <> `Ttv && Coo.rank coo = 2 ->
      let key = (req.Request.matrix, v, req.Request.format) in
      (match Hashtbl.find_opt tbl key with
       | Some st -> Some st
       | None ->
         let st = pack enc coo in
         Hashtbl.add tbl key st;
         Some st)
    | _ -> None

(* Build.build decomposed into one call per layer: the tuning decision
   for a Tuned request (Select.decide, falling back to default ASaP
   where tuning does not apply), then the kernel's layers. *)
let traced_build tr (req : Request.t) coo st : Driver.result =
  let machine = Request.machine_of req in
  let asap = Pipeline.Asap Asap_prefetch.Asap.default in
  let variant =
    match
      ( req.Request.pipeline, Request.fixed_variant req.Request.variant,
        Request.encoding_of_format req.Request.kernel req.Request.format, st )
    with
    | _, Some v, _, _ -> v
    | None, None, Some enc, Some st ->
      let mode = req.Request.tune_mode in
      (match
         Span.span tr ("tune." ^ Tuning.mode_to_string mode) (fun () ->
             Select.decide ~engine:req.Request.engine ~jobs:1 ~st ~mode
               machine enc coo)
       with
       | d -> d.Select.d_chosen
       | exception Invalid_argument _ -> asap)
    | _ -> asap
  in
  Kernel_op.traced tr
    { Kernel_op.spec = Request.spec req; coo;
      cfg =
        Driver.Cfg.make ~engine:req.Request.engine
          ~tune_mode:req.Request.tune_mode ?pipeline:req.Request.pipeline ?st
          ~specialize:req.Request.specialize ~machine ~variant () }

let run rep config =
  rep.last := None;
  Scheduler.run ~updates:rep.updates config rep.requests

let plain rep = finish rep (run rep rep.config) 0

let untraced rep =
  let rp = run rep rep.config in
  let coo = matrices rep and st = packer Storage.pack in
  List.iter
    (fun a ->
      let m = coo (a.a_req.Request.matrix, a.a_version) in
      ignore (Build.build ?st:(st a.a_req a.a_version m) a.a_req m))
    (served rep rp);
  finish rep rp 0

let traced tr rep =
  let rp = Span.span tr "serve.replay" (fun () -> run rep rep.config) in
  let coo = matrices ~generate:(Span.span tr "workloads.generate") rep in
  let st =
    packer (fun enc coo ->
        Span.count tr "tensor.pack.nnz" (Coo.nnz coo);
        Span.span tr "tensor.pack" (fun () -> Storage.pack enc coo))
  in
  (* The decomposition must reproduce what was served exactly. *)
  let mismatched =
    List.fold_left
      (fun fails a ->
        let m = coo (a.a_req.Request.matrix, a.a_version) in
        let r =
          Span.span tr "serve.build" (fun () ->
              traced_build tr a.a_req m (st a.a_req a.a_version m))
        in
        if String.equal (W.digest_of r) (W.digest_of (result_of a)) then fails
        else fails + a.a_served)
      0 (served rep rp)
  in
  finish rep rp mismatched

(* One op replays every trace of the workload in turn. *)
let op_of replays : W.op =
  let each f () =
    let rs = List.map f replays in
    { W.digest = String.concat "|" (List.map (fun r -> r.W.digest) rs);
      check = (fun () -> List.fold_left (fun n r -> n + r.W.check ()) 0 rs) }
  in
  { W.units =
      List.fold_left (fun n rep -> n + List.length rep.requests) 0 replays;
    plain = each plain;
    untraced = each untraced;
    traced = (fun tr -> each (traced tr) ()) }

let role_of (req : Request.t) =
  match req.Request.variant with
  | `Baseline -> W.Base
  | `Asap | `Tuned -> W.Asap
  | `Aj -> W.Aj

(* Prefetch metrics over the distinct version-0 artefacts served, each
   paired with its prefetch-free baseline run on the same matrix. *)
let served_samples rep rp =
  let coo = matrices rep in
  served rep rp
  |> List.filter (fun a -> a.a_version = 0)
  |> List.concat_map (fun a ->
         let machine = Request.machine_of a.a_req in
         let base =
           Driver.run
             (Driver.Cfg.make ~engine:a.a_req.Request.engine ~machine
                ~variant:Pipeline.Baseline ())
             (Request.spec a.a_req)
             (coo (a.a_req.Request.matrix, 0))
         in
         let fp = a.a_record.Scheduler.r_fp in
         [ { W.group = fp; role = W.Base; machine;
             report = base.Driver.report };
           { W.group = fp; role = role_of a.a_req; machine;
             report = (result_of a).Driver.report } ])

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* [latency] gives the latency and prefetch metrics, [capacity] the
   saturated throughput; the fleet counters are summed (or maxed) over
   every replay of the pass. *)
let metrics ~latency ~capacity replays () =
  let rp r = Option.get !(r.last) in
  let all = List.map rp replays in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 all in
  let max_ f = List.fold_left (fun acc x -> max acc (f x)) 0 all in
  let s f = sum (fun x -> f x.Scheduler.rp_summary) in
  let lat = (rp latency).Scheduler.rp_summary in
  let cap = (rp capacity).Scheduler.rp_summary in
  let spec_hit = sum (fun x -> counter x "serve.spec.hit") in
  let spec_miss = sum (fun x -> counter x "serve.spec.miss") in
  let pack_hit = sum (fun x -> counter x "serve.pack.hit") in
  let pack_miss = sum (fun x -> counter x "serve.pack.miss") in
  W.prefetch_metrics (served_samples latency (rp latency))
  @ [ ("virtual_ms_p50", lat.Slo.s_p50_ms);
      ("virtual_ms_p99",
       Option.value lat.Slo.s_p99_ms ~default:lat.Slo.s_p95_ms);
      ("serve.capacity_rps", cap.Slo.s_throughput_rps);
      ("serve.build.count", float_of_int (s (fun x -> x.Slo.s_builds)));
      ("serve.cache.hit_rate",
       ratio
         (s (fun x -> x.Slo.s_hits))
         (s (fun x -> x.Slo.s_hits + x.Slo.s_misses)));
      ("serve.cache.evictions", float_of_int (s (fun x -> x.Slo.s_evictions)));
      ("serve.cache.invalidated",
       float_of_int (s (fun x -> x.Slo.s_invalidated)));
      ("serve.cache.stale_hits",
       float_of_int (s (fun x -> x.Slo.s_stale_hits)));
      ("serve.pack.hit_rate", ratio pack_hit (pack_hit + pack_miss));
      ("serve.spec.hit_rate", ratio spec_hit (spec_hit + spec_miss));
      ("serve.steals", float_of_int (s (fun x -> x.Slo.s_steals)));
      ("serve.queue_peak",
       float_of_int (max_ (fun x -> x.Scheduler.rp_summary.Slo.s_queue_peak)));
      ("serve.batch_max",
       float_of_int (max_ (fun x -> x.Scheduler.rp_summary.Slo.s_batch_max)));
      ("serve.shed_frac",
       ratio (s (fun x -> x.Slo.s_shed)) (s (fun x -> x.Slo.s_total))) ]

let make ~latency ~capacity replays ~warmup : W.t =
  { W.ops = [| op_of replays |];
    warmup;
    virtual_metrics = metrics ~latency ~capacity replays }

let tenants = [ ("alpha", 3.); ("beta", 1.); ("gamma", 1.) ]
(* Four shards, builds on one domain: records are identical at any
   [jobs], and on a two-core host shared with other work a second
   domain made host throughput swing several times as much run to run. *)
let fleet = Config.(default |> with_shards 4)

(* A short replay of the trace's head, so every code path has run once
   before timing. *)
let warmup_of ~requests rep () =
  let head = List.filteri (fun i _ -> i < requests) rep.requests in
  ignore (Scheduler.run ~updates:rep.updates rep.config head)

(* Six artefact families over [n_seeds] matrix seeds each, hot head
   first: tuned SpMV under sweep and model tuning, specialized SpMM and
   SDDMM, blocked and doubly-compressed SpMV. Sizes are divided by
   [div]. *)
let churn_profiles ~seed ~n_seeds ~div =
  let r n = n / div in
  List.concat_map
    (fun k ->
      let s = (seed * 100) + k in
      [ Mix.profile ~variant:`Tuned ~tune_mode:`Sweep
          (Printf.sprintf "powerlaw:%d,6@%d" (r 1500) s);
        Mix.profile ~variant:`Tuned ~tune_mode:`Model
          (Printf.sprintf "uniform:%d,%d@%d" (r 1200) (r 6000) s);
        Mix.profile ~kernel:`Spmm ~specialize:true
          (Printf.sprintf "road:%d,3@%d" (r 1000) s);
        Mix.profile ~kernel:`Sddmm ~specialize:true
          (Printf.sprintf "powerlaw:%d,6@%d" (r 300) s);
        Mix.profile ~format:"bsr2x2"
          (Printf.sprintf "banded:%d,8@%d" (r 1200) s);
        Mix.profile ~format:"dcsr" ~variant:`Aj
          (Printf.sprintf "heavytail:%d,%d,10@%d" (r 1200) (r 5000) s) ])
    (List.init n_seeds Fun.id)

(* The default profiles, each matrix drawn with the workload's seed; at
   smoke scale, the churn families at a tenth of their size. *)
let serve_hot ~seed ~smoke =
  let profiles =
    if smoke then churn_profiles ~seed ~n_seeds:1 ~div:10
    else
      List.map
        (fun p ->
          { p with Mix.p_matrix = Printf.sprintf "%s@%d" p.Mix.p_matrix seed })
        (Mix.default_profiles ())
  in
  let n_nominal, n_overload =
    if smoke then (300, 100) else (80_000, 30_000)
  in
  let nominal =
    replay fleet
      (Mix.hot_cold ~alpha:1.2 ~mean_gap_ms:0.012 ~tenants ~seed ~n:n_nominal
         profiles)
  in
  let overload =
    replay fleet
      (Mix.hot_cold ~alpha:1.2 ~mean_gap_ms:0.005 ~tenants ~seed:(seed + 1)
         ~n:n_overload profiles)
  in
  make ~latency:nominal ~capacity:overload [ nominal; overload ]
    ~warmup:(warmup_of ~requests:500 nominal)

let serve_churn ~seed ~smoke =
  let n_seeds, n, div = if smoke then (1, 200, 10) else (8, 2000, 1) in
  let profiles = churn_profiles ~seed ~n_seeds ~div in
  let gap = 0.01 in
  let churn =
    replay
      ~updates:
        (Mix.update_stream ~mean_gap_ms:(20. *. gap) ~seed ~n:(n / 20)
           profiles)
      (Config.with_cache_capacity 16 fleet)
      (Mix.hot_cold ~alpha:0.7 ~mean_gap_ms:gap ~tenants ~seed ~n profiles)
  in
  make ~latency:churn ~capacity:churn [ churn ]
    ~warmup:(warmup_of ~requests:20 churn)
