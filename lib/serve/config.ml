(* The serving configuration.

   [Config.t] names the fleet — width, per-shard capacity, per-tenant
   admission quotas, deadline policy, host parallelism — in one record
   with [default] plus [with_*] builders, mirroring [Driver.Cfg]'s role
   for single executions. [Scheduler.run] consumes it. Per-request
   settings (engine, tuning mode, specialization, pipeline) live on the
   requests themselves; [Request.override] rewrites them in bulk.

   [default] is a one-shard fleet: 2 servers, queue 64, cache 128,
   batching on, sequential build. *)

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
  batching : bool;         (* serve same-fingerprint waiters together *)
  stealing : bool;         (* idle shards steal from the longest queue *)
  quota_default : int option;     (* per-tenant in-queue cap; None = none *)
  quotas : (string * int) list;   (* per-tenant overrides of the default *)
  deadline_policy : deadline_policy;
  jobs : int;              (* host domains for the build pass *)
}

let default =
  { shards = 1; servers = 2; queue_limit = 64; cache_capacity = 128;
    batching = true; stealing = true; quota_default = None; quotas = [];
    deadline_policy = Degrade; jobs = 1 }

let with_shards shards t = { t with shards }
let with_servers servers t = { t with servers }
let with_queue_limit queue_limit t = { t with queue_limit }
let with_cache_capacity cache_capacity t = { t with cache_capacity }
let with_batching batching t = { t with batching }
let with_stealing stealing t = { t with stealing }
let with_quota quota_default t = { t with quota_default }
let with_quotas quotas t = { t with quotas }
let with_deadline_policy deadline_policy t = { t with deadline_policy }
let with_jobs jobs t = { t with jobs }

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
  if t.jobs < 1 then fail "Serve.Config: jobs < 1";
  (match t.quota_default with
   | Some q when q < 0 -> fail "Serve.Config: negative quota"
   | _ -> ());
  List.iter
    (fun (tenant, q) ->
      if q < 0 then fail "Serve.Config: negative quota for tenant %S" tenant)
    t.quotas
