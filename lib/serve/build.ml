(* Building one cache entry: the expensive, host-side half of serving.

   An entry holds everything a fingerprint's repeat requests reuse: the
   tuning decision when the request asked for [`Tuned], and the
   canonical result of one cold execution of the prepared kernel
   ({!Driver.Prep}: sparsified + prefetch-injected IR, packed storage,
   simulated address layout, bytecode). The preparation itself is not
   kept: the simulator is deterministic, so every execution of the same
   preparation yields an identical report — the cold run's result IS
   the result of every repeat request, which is what lets cache hits
   skip host work entirely.

   Virtual service costs derive from the same build: [run_ms] is the
   kernel's simulated cycles at the machine's frequency, and [tune_ms]
   is the virtual cost of making the tuning decision — summed profile
   cycles for sweep-mode tuning, the O(nnz) feature-extraction cost for
   model-mode (microseconds, the whole point of the cost model), their
   sum for hybrid — charged to cache misses in virtual time.

   The matrix is packed once here and shared by both the tuning profile
   runs and the prepared execution; packing is variant-independent, so
   neither side repeats it. *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Driver = Asap_core.Driver
module Pipeline = Asap_core.Pipeline
module Tuning = Asap_core.Tuning
module Select = Asap_model.Select
module Asap = Asap_prefetch.Asap

type entry = {
  e_fp : string;                      (* Request.fingerprint *)
  e_machine : Machine.t;
  e_decide : Select.decision option;  (* Some iff variant was `Tuned … *)
  e_tune_fell_back : bool;            (* … and tuning was inapplicable *)
  e_result : Driver.result;           (* the canonical cold run *)
  e_run_ms : float;                   (* virtual per-execution cost *)
  e_tune_ms : float;                  (* virtual decision cost on miss *)
  e_spec : bool;                      (* an AoT-specialized artefact *)
  e_spec_ns : int;                    (* host ns spent preparing it *)
}

let run_ms (e : entry) = e.e_run_ms
let result (e : entry) = e.e_result

(* Virtual sparsify+compile time charged to every cache miss. *)
let compile_ms = 0.05

(** [miss_penalty_ms e] is the virtual time a cache miss on [e]'s
    fingerprint charges before service can start: the sparsify+compile
    penalty plus the entry's tuning-decision cost. *)
let miss_penalty_ms (e : entry) = compile_ms +. e.e_tune_ms

(* Profile-guided tuning needs a rank-2 matrix under an encoding with a
   dense top level (the profile slice is a row range); the model path
   shares the rank-2 restriction. Anything else gracefully falls back to
   the default ASaP variant rather than failing the request. When tuning
   applies, the storage packed for the profile runs is returned so the
   prepared execution reuses it. *)
let decide_variant ?prepack (req : Request.t) (machine : Machine.t)
    (coo : Coo.t) :
    Pipeline.variant * Select.decision option * bool * Storage.t option =
  match (req.Request.pipeline, Request.fixed_variant req.Request.variant) with
  | Some _, Some v ->
    (* An explicit pipeline fixes the pass stack outright: nothing left
       to tune, no decision cost on miss. *)
    (v, None, false, None)
  | Some _, None -> (Pipeline.Asap Asap.default, None, false, None)
  | None, Some v -> (v, None, false, None)
  | None, None ->
    let fallback = (Pipeline.Asap Asap.default, None, true, None) in
    (match Request.encoding_of_format req.Request.kernel req.Request.format with
     | None -> fallback
     | Some enc when req.Request.kernel <> `Ttv && Coo.rank coo = 2 ->
       (match
          let st =
            match prepack with
            | Some st -> st
            | None -> Storage.pack enc coo
          in
          ( Select.decide ~engine:req.Request.engine ~jobs:1 ~st
              ~mode:req.Request.tune_mode machine enc coo,
            st )
        with
        | d, st -> (d.Select.d_chosen, Some d, false, Some st)
        | exception Invalid_argument _ -> fallback)
     | Some _ -> fallback)

(** [build ?st req coo] assembles the cache entry for [req]'s
    fingerprint: decide the variant (if asked), prepare, and execute
    once cold. [st], if given, must be the packed storage of [req]'s
    format over exactly [coo] — the scheduler's pack-memoisation
    pre-pass supplies it so repeated formats of one matrix pack once.
    Safe to call from a {!Par} worker — it touches no shared state
    ([~jobs:1] tuning). *)
let build ?st:(prepack : Storage.t option) (req : Request.t) (coo : Coo.t) :
    entry =
  let machine = Request.machine_of req in
  let variant, decide, fell_back, st =
    decide_variant ?prepack req machine coo
  in
  let st = match st with Some _ -> st | None -> prepack in
  let tune_ms =
    match decide with
    | None -> 0.
    | Some d -> Machine.cycles_to_ms machine d.Select.d_tune_cycles
  in
  let cfg =
    Driver.Cfg.make ~engine:req.Request.engine
      ~tune_mode:req.Request.tune_mode ?pipeline:req.Request.pipeline ?st
      ~specialize:req.Request.specialize ~machine ~variant ()
  in
  let t0 = if req.Request.specialize then Some (Unix.gettimeofday ()) else None in
  let prep = Driver.Prep.make cfg (Request.spec req) coo in
  let spec_ns =
    match t0 with
    | None -> 0
    | Some t0 -> int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)
  in
  let result = Driver.Prep.exec prep in
  let run_ms =
    Machine.cycles_to_ms machine (Exec.Report.cycles result.Driver.report)
  in
  { e_fp = Request.fingerprint req; e_machine = machine;
    e_decide = decide; e_tune_fell_back = fell_back; e_result = result;
    e_run_ms = run_ms; e_tune_ms = tune_ms;
    e_spec = req.Request.specialize; e_spec_ns = spec_ns }
