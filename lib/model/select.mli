(** Tuning-mode dispatch: turn a [`Tuned] request into a concrete
    variant under [`Sweep] (sliced candidate simulations), [`Model]
    (one-pass features + cost model — the cold-start fast path) or
    [`Hybrid] (serve the sweep's decision, record whether the model
    agreed). *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Pipeline = Asap_core.Pipeline
module Tuning = Asap_core.Tuning

type decision = {
  d_mode : Tuning.mode;
  d_chosen : Pipeline.variant;     (** the variant actually served *)
  d_features : Features.t option;  (** [Some] for [`Model] and [`Hybrid] *)
  d_model : Cost_model.prediction option;
  d_sweep : Tuning.decision option;  (** [Some] for [`Sweep] and [`Hybrid] *)
  d_agree : bool option;   (** [`Hybrid]: did the model match the sweep? *)
  d_delta_cycles : int option;
    (** [`Hybrid] disagreements: profiled slice cycles of the model's
        pick minus the sweep's (model distances absent from the
        candidate list are charged as the nearest profiled candidate) *)
  d_tune_cycles : int;
    (** virtual cycles charged for making the decision: profiled
        simulation cycles ([`Sweep]), the feature extractor's O(nnz)
        cost ([`Model]), or their sum ([`Hybrid]) *)
}

(** [decide ~mode machine enc coo] decides a variant. [`Hybrid] always
    serves the sweep's choice, so hybrid replays are byte-identical to
    sweep replays. Optional arguments are forwarded to {!Tuning.tune}
    ([engine], [jobs], [candidates], [st]); [st], if given, must be
    [Storage.pack enc coo].
    @raise Invalid_argument as {!Tuning.tune} and {!Features.extract}
    do (compressed outer level, empty candidates, non-rank-2). *)
val decide :
  ?engine:Asap_sim.Exec.engine -> ?jobs:int -> ?candidates:int list ->
  ?st:Storage.t -> mode:Tuning.mode ->
  Machine.t -> Encoding.t -> Coo.t -> decision

(** [describe d] renders the decision (profile, prediction, agreement)
    for logs and the CLI. *)
val describe : decision -> string
