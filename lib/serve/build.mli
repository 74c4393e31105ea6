(** Building one cache entry — the expensive host-side half of serving:
    the tuning decision for [`Tuned] requests (under the request's
    tuning mode: sweep, model or hybrid — {!Asap_model.Select}), and the
    canonical result of one cold run of the prepared execution
    ({!Asap_core.Driver.Prep}, not kept in the entry: the simulator is
    deterministic, so repeats are identical and cache hits skip host
    work entirely). Virtual
    service costs ride along: [run_ms] (simulated kernel time) and
    [tune_ms] (simulated decision time — profile runs for sweep,
    feature extraction for model — charged to cache misses). The matrix
    is packed once and shared by the profile runs and the prepared
    execution. *)

module Coo = Asap_tensor.Coo
module Machine = Asap_sim.Machine
module Driver = Asap_core.Driver
module Select = Asap_model.Select

type entry = {
  e_fp : string;                      (** {!Request.fingerprint} *)
  e_machine : Machine.t;
  e_decide : Select.decision option;  (** Some iff variant was [`Tuned] … *)
  e_tune_fell_back : bool;            (** … and tuning was inapplicable *)
  e_result : Driver.result;           (** the canonical cold run *)
  e_run_ms : float;                   (** virtual per-execution cost *)
  e_tune_ms : float;                  (** virtual decision cost on miss *)
  e_spec : bool;                      (** an AoT-specialized artefact *)
  e_spec_ns : int;                    (** host ns spent preparing it *)
}

val run_ms : entry -> float
val result : entry -> Driver.result

(** [miss_penalty_ms e] is the virtual time a cache miss charges before
    service: a 0.05 ms sparsify+compile penalty plus [e]'s
    tuning-decision cost. *)
val miss_penalty_ms : entry -> float

(** [build ?st req coo] assembles the entry for [req]'s fingerprint:
    decide the variant (if asked; falls back to default ASaP when
    tuning is inapplicable), prepare, and execute once cold. [st], if
    given, must be the packed storage of [req]'s format over exactly
    [coo] — the scheduler's pack-memoisation pre-pass supplies it so
    repeated formats of one matrix pack once. Safe to call from a
    {!Par} worker. *)
val build : ?st:Asap_tensor.Storage.t -> Request.t -> Coo.t -> entry
