(* The unified serving configuration.

   [Config.t] names the whole entry-point surface — fleet width,
   per-shard capacity, per-tenant admission quotas, engine and
   tune-mode overrides, deadline policy, host parallelism — in one
   record with [default] plus [with_*] builders, mirroring
   [Driver.Cfg]'s role for single executions. [Scheduler.run] consumes
   it.

   [default] is a one-shard fleet: 2 servers, queue 64, cache 128,
   0.05 ms compile penalty, batching on, sequential build. *)

module Exec = Asap_sim.Exec
module Tuning = Asap_core.Tuning

(* What happens to a request whose deadline expired while it queued. *)
type deadline_policy =
  | Degrade  (* serve its prefetch-free baseline entry (historical) *)
  | Drop     (* shed it at dispatch time *)
  | Ignore   (* serve the requested variant anyway *)

let deadline_policy_to_string = function
  | Degrade -> "degrade"
  | Drop -> "drop"
  | Ignore -> "ignore"

let deadline_policy_of_string = function
  | "degrade" -> Some Degrade
  | "drop" -> Some Drop
  | "ignore" -> Some Ignore
  | _ -> None

let valid_deadline_policies = "degrade|drop|ignore"

type t = {
  shards : int;            (* fleet width; 1 = the classic scheduler *)
  servers : int;           (* virtual servers per shard *)
  queue_limit : int;       (* per-shard FIFO depth; past it arrivals shed *)
  cache_capacity : int;    (* per-shard LRU entries; 0 disables cache AND
                              memoised builds AND batching *)
  compile_ms : float;      (* virtual sparsify+compile penalty per miss *)
  batching : bool;         (* serve same-fingerprint waiters together *)
  stealing : bool;         (* idle shards steal from the longest queue *)
  vnodes : int;            (* router ring points per shard *)
  quota_default : int option;     (* per-tenant in-queue cap; None = none *)
  quotas : (string * int) list;   (* per-tenant overrides of the default *)
  deadline_policy : deadline_policy;
  engine : Exec.engine option;    (* override every request's engine *)
  tune_mode : Tuning.mode option; (* override every request's tune_mode *)
  specialize : bool option;       (* override every request's specialize *)
  pipelines : (string * string) list;
                           (* per-tenant pass-pipeline spec overrides *)
  jobs : int;              (* host domains for the build pass *)
}

let default =
  { shards = 1; servers = 2; queue_limit = 64; cache_capacity = 128;
    compile_ms = 0.05; batching = true; stealing = true;
    vnodes = Router.default_vnodes; quota_default = None; quotas = [];
    deadline_policy = Degrade; engine = None; tune_mode = None;
    specialize = None; pipelines = []; jobs = 1 }

let with_shards shards t = { t with shards }
let with_servers servers t = { t with servers }
let with_queue_limit queue_limit t = { t with queue_limit }
let with_cache_capacity cache_capacity t = { t with cache_capacity }
let with_compile_ms compile_ms t = { t with compile_ms }
let with_batching batching t = { t with batching }
let with_stealing stealing t = { t with stealing }
let with_vnodes vnodes t = { t with vnodes }
let with_quota quota_default t = { t with quota_default }
let with_quotas quotas t = { t with quotas }
let with_deadline_policy deadline_policy t = { t with deadline_policy }
let with_engine engine t = { t with engine = Some engine }
let with_tune_mode tune_mode t = { t with tune_mode = Some tune_mode }
let with_specialize specialize t = { t with specialize = Some specialize }
let with_pipelines pipelines t = { t with pipelines }
let with_jobs jobs t = { t with jobs }

(** [pipeline_of t tenant] is the pipeline override that applies to
    [tenant]'s requests, if any. *)
let pipeline_of t tenant = List.assoc_opt tenant t.pipelines

(** [quota_of t tenant] is the admission quota that applies to [tenant]:
    its [quotas] entry if present, else [quota_default]. *)
let quota_of t tenant =
  match List.assoc_opt tenant t.quotas with
  | Some q -> Some q
  | None -> t.quota_default

let validate t =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  if t.shards < 1 then fail "Serve.Config: shards < 1";
  if t.servers < 1 then fail "Serve.Config: servers < 1";
  if t.queue_limit < 1 then fail "Serve.Config: queue_limit < 1";
  if t.cache_capacity < 0 then fail "Serve.Config: negative cache_capacity";
  if t.vnodes < 1 then fail "Serve.Config: vnodes < 1";
  if t.jobs < 1 then fail "Serve.Config: jobs < 1";
  (match t.quota_default with
   | Some q when q < 0 -> fail "Serve.Config: negative quota"
   | _ -> ());
  List.iter
    (fun (tenant, q) ->
      if q < 0 then fail "Serve.Config: negative quota for tenant %S" tenant)
    t.quotas;
  List.iter
    (fun (tenant, spec) ->
      match Asap_pass.Runner.resolve spec with
      | (_ : Asap_pass.Runner.resolved) -> ()
      | exception Invalid_argument m ->
        fail "Serve.Config: bad pipeline for tenant %S: %s" tenant m)
    t.pipelines
