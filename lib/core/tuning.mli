(** Profile-guided prefetch tuning.

    The paper leaves the lookahead distance user- or profile-tunable
    (§3.2.3) and cites APT-GET and RPG^2 as orthogonal profile-guided
    directions (§6). [tune] implements both over the simulator: SpMV is
    profiled on a leading slice of rows; prefetching is rolled back when
    the slice shows low memory pressure, otherwise the cycle-minimising
    candidate distance is selected. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine

(** How a [`Tuned] decision is made: [`Sweep] simulates every candidate
    distance on a profiling slice (this module); [`Model] predicts the
    configuration from one-pass matrix features
    ({!Asap_model.Cost_model}), skipping the sweep entirely; [`Hybrid]
    serves the sweep's decision while also running the model and
    recording agreement. Defined here so serve requests, the CLI and
    the check harness all name modes identically. *)
type mode = [ `Sweep | `Model | `Hybrid ]

val default_mode : mode
val mode_to_string : mode -> string
val mode_of_string : string -> mode option

(** ["sweep|model|hybrid"], for CLI error messages. *)
val valid_modes : string

type profile_entry = {
  pe_label : string;
  pe_distance : int option;    (** [None] for the baseline entry *)
  pe_cycles : int;
  pe_mpki : float;
}

type decision = {
  chosen : Pipeline.variant;
  profile : profile_entry list;
  profile_rows : int;
}

(** Fraction of outer rows profiled per candidate (0.05). Exposed so the
    cost model's analytic slice estimate ({!Asap_model.Features}) mirrors
    exactly the slice the sweep measures. *)
val profile_fraction : float

(** [profile_cycles d] is the summed simulated cycles of the decision's
    profile runs — the virtual cost a serve cache miss is charged for
    sweep-mode tuning. *)
val profile_cycles : decision -> int

(** [tune ?engine ?jobs ?candidates ?st machine enc coo] profiles and
    decides. The encoding's top level must be dense (the profiling
    slice is a row range). [candidates] defaults to distances 4, 8, 16,
    32 and 64. [engine] selects the simulator's execution
    engine; candidate profiling runs are independent simulations, so
    [jobs > 1] farms them to a {!Par} domain pool — the decision is
    deterministic either way, and independent of candidate order (cycle
    ties break towards the smaller distance). [st], if given, must be
    [Storage.pack enc coo]; callers that already packed the matrix pass
    it so the variant-independent packing is not redone — otherwise one
    shared packing is built and reused across all profile runs.
    @raise Invalid_argument on a compressed outer level or an empty
    candidate list. *)
val tune :
  ?engine:Asap_sim.Exec.engine -> ?jobs:int ->
  ?candidates:int list -> ?st:Asap_tensor.Storage.t ->
  Machine.t -> Encoding.t -> Coo.t -> decision

(** [describe d] renders the decision for logs and examples. *)
val describe : decision -> string
