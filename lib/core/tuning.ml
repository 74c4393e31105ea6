(* Profile-guided prefetch tuning.

   The paper leaves the lookahead distance user- or profile-tunable
   (§3.2.3) and points to APT-GET and RPG^2 as orthogonal profile-guided
   techniques (§6): selecting distances dynamically, and rolling
   prefetching back when it does not pay. This module implements both
   ideas over the simulator: kernels are profiled on a slice of the
   outermost loop, then the full run uses the winning configuration.

   Profiling is honest about cost: every profiled configuration is a real
   (sliced) simulation on a cold hierarchy, and the chosen decision is
   returned with the profile so callers can report it.

   The sweep is one of three tuning modes (the others live in lib/model,
   which predicts the decision from cheap matrix features instead of
   simulating candidates); the [mode] type is defined here so every layer
   — serve requests, the CLI, the check harness — names modes the same
   way. Tuning sits above Driver: every profile run is a Driver.Prep
   execution, so it shares the one execution path. *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Asap = Asap_prefetch.Asap

(** How a [`Tuned] decision is made: [`Sweep] simulates every candidate
    distance on a profiling slice (this module); [`Model] predicts the
    configuration from one-pass matrix features (lib/model), skipping
    the sweep entirely; [`Hybrid] serves the sweep's decision while also
    running the model and recording agreement. *)
type mode = [ `Sweep | `Model | `Hybrid ]

let default_mode : mode = `Sweep

let mode_to_string : mode -> string = function
  | `Sweep -> "sweep"
  | `Model -> "model"
  | `Hybrid -> "hybrid"

let mode_of_string : string -> mode option = function
  | "sweep" -> Some `Sweep
  | "model" -> Some `Model
  | "hybrid" -> Some `Hybrid
  | _ -> None

let valid_modes = "sweep|model|hybrid"

type profile_entry = {
  pe_label : string;
  pe_distance : int option;    (* None for the baseline *)
  pe_cycles : int;
  pe_mpki : float;
}

type decision = {
  chosen : Pipeline.variant;
  profile : profile_entry list;
  profile_rows : int;          (* outer iterations profiled per entry *)
}

let default_candidates = [ 4; 8; 16; 32; 64 ]
let profile_fraction = 0.05

(* Baseline slices below this L2 MPKI roll prefetching back. *)
let rollback_mpki = 2.0

(** [profile_cycles d] is the summed simulated cycles of the decision's
    profile runs — the virtual cost the serve scheduler charges a cache
    miss for sweep-mode tuning. *)
let profile_cycles (d : decision) : int =
  List.fold_left (fun acc e -> acc + e.pe_cycles) 0 d.profile

(** [tune ?engine ?jobs ?candidates ?st machine enc coo] profiles SpMV
    over [coo] on a leading slice of rows ([profile_fraction] of them)
    and decides:

    - if the baseline slice shows less memory pressure than
      [rollback_mpki] (2.0 L2 MPKI), prefetching is rolled back
      entirely (the RPG^2 idea) and {!Pipeline.Baseline} is chosen;
    - otherwise ASaP is chosen with the candidate distance that minimised
      profiled cycles (the APT-GET idea); ties break towards the smaller
      distance, so the decision is independent of candidate order.

    [st], if given, must be [Storage.pack enc coo] — callers that already
    packed the matrix (the serve build path) pass it to skip re-packing;
    otherwise one shared packing is built here and reused by every
    profile run. Candidate profiling runs are independent simulations, so
    [jobs > 1] farms them to a {!Par} domain pool; the decision is
    deterministic either way. The top storage level must support slicing
    (dense outer loop). *)
let tune ?engine ?(jobs = 1) ?(candidates = default_candidates) ?st
    (machine : Machine.t) (enc : Encoding.t) (coo : Coo.t) : decision =
  (match enc.Encoding.levels.(0) with
   | Encoding.Dense -> ()
   | Encoding.Compressed _ | Encoding.Singleton ->
     invalid_arg "Tuning.tune: profiling slices need a dense outer loop");
  if candidates = [] then
    invalid_arg "Tuning.tune: empty candidate list (nothing to sweep)";
  let rows = coo.Coo.dims.(0) in
  let prof_rows = max 1 (int_of_float (float_of_int rows *. profile_fraction)) in
  let slice = (0, prof_rows) in
  (* One packing, shared by the baseline and every candidate run; each
     run is one sliced SpMV execution through Driver.Prep. *)
  let st = match st with Some st -> st | None -> Storage.pack enc coo in
  let run variant =
    let cfg = Driver.Cfg.make ?engine ~st ~machine ~variant () in
    (Driver.Prep.exec ~slice (Driver.Prep.make cfg (Driver.Spmv enc) coo))
      .Driver.report
  in
  let base = run Pipeline.Baseline in
  let base_entry =
    { pe_label = "baseline"; pe_distance = None;
      pe_cycles = base.Exec.rp_cycles; pe_mpki = Exec.l2_mpki base }
  in
  if Exec.l2_mpki base < rollback_mpki then
    { chosen = Pipeline.Baseline; profile = [ base_entry ];
      profile_rows = prof_rows }
  else begin
    let entries =
      Par.map ~jobs
        (fun d ->
          let r = run (Pipeline.Asap { Asap.default with Asap.distance = d }) in
          { pe_label = Printf.sprintf "asap-d%d" d; pe_distance = Some d;
            pe_cycles = r.Exec.rp_cycles; pe_mpki = Exec.l2_mpki r })
        (Array.of_list candidates)
      |> Array.to_list
    in
    let better e acc =
      (* Strictly fewer cycles wins; equal cycles prefer the smaller
         distance, making the pick independent of candidate order. *)
      e.pe_cycles < acc.pe_cycles
      || (e.pe_cycles = acc.pe_cycles && e.pe_distance < acc.pe_distance)
    in
    let best =
      List.fold_left
        (fun acc e -> if better e acc then e else acc)
        (List.hd entries) (List.tl entries)
    in
    let chosen =
      if best.pe_cycles < base.Exec.rp_cycles then
        Pipeline.Asap
          { Asap.default with Asap.distance = Option.get best.pe_distance }
      else Pipeline.Baseline
    in
    { chosen; profile = base_entry :: entries; profile_rows = prof_rows }
  end

(** [describe d] renders the decision for logs and examples. *)
let describe (d : decision) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "profiled %d outer rows:\n" d.profile_rows);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %-10s %10d cycles  %6.2f MPKI\n" e.pe_label
           e.pe_cycles e.pe_mpki))
    d.profile;
  Buffer.add_string buf
    (Printf.sprintf "chosen: %s\n" (Pipeline.variant_name d.chosen));
  Buffer.contents buf
