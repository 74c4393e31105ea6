(* Tuning-mode dispatch: one entry point that turns a [`Tuned] request
   into a concrete variant under any of the three modes.

   - [`Sweep]  — Tuning.tune's sliced candidate simulations (the
     profile-guided path the repo has always had);
   - [`Model]  — Features.extract + Cost_model.predict: O(nnz) integer
     work instead of O(candidates) simulations; this is the cold-start
     fast path;
   - [`Hybrid] — runs both, *serves the sweep's decision* (so hybrid
     replays are byte-identical to sweep replays) and records whether
     the model agreed and how many profiled cycles its pick would have
     cost relative to the sweep's.

   The returned decision also carries [d_tune_cycles], the virtual
   cycles the serve scheduler charges a cache miss for making the
   decision — profiled simulation cycles for the sweep, the feature
   extractor's O(nnz) cost for the model, their sum for hybrid. *)

module Coo = Asap_tensor.Coo
module Storage = Asap_tensor.Storage
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Pipeline = Asap_core.Pipeline
module Tuning = Asap_core.Tuning
module Asap = Asap_prefetch.Asap

type decision = {
  d_mode : Tuning.mode;
  d_chosen : Pipeline.variant;        (* the variant actually served *)
  d_features : Features.t option;     (* Some for `Model and `Hybrid *)
  d_model : Cost_model.prediction option;
  d_sweep : Tuning.decision option;   (* Some for `Sweep and `Hybrid *)
  d_agree : bool option;              (* `Hybrid: model = sweep choice? *)
  d_delta_cycles : int option;
    (* `Hybrid: profiled slice cycles of the model's pick minus the
       sweep's pick (0 when they agree; the model's distance is mapped
       to the nearest profiled candidate) *)
  d_tune_cycles : int;                (* virtual cost of deciding *)
}

(* Profiled slice cycles of [variant] according to a sweep's profile.
   A model distance absent from the candidate list is charged as the
   nearest profiled candidate — the sweep never measured it, and on the
   plateau neighbours are the honest stand-in. *)
let profile_lookup (sweep : Tuning.decision) (variant : Pipeline.variant) :
    int option =
  let entries = sweep.Tuning.profile in
  match variant with
  | Pipeline.Baseline ->
    List.find_opt (fun e -> e.Tuning.pe_distance = None) entries
    |> Option.map (fun e -> e.Tuning.pe_cycles)
  | Pipeline.Asap c ->
    let d = c.Asap.distance in
    List.filter (fun e -> e.Tuning.pe_distance <> None) entries
    |> List.fold_left
         (fun acc e ->
           let ed = Option.get e.Tuning.pe_distance in
           match acc with
           | None -> Some (abs (ed - d), e.Tuning.pe_cycles)
           | Some (gap, _) when abs (ed - d) < gap ->
             Some (abs (ed - d), e.Tuning.pe_cycles)
           | Some _ -> acc)
         None
    |> Option.map snd
  | Pipeline.Ainsworth_jones _ -> None

let decide ?engine ?jobs ?candidates ?st ~(mode : Tuning.mode)
    (machine : Machine.t) (enc : Encoding.t) (coo : Coo.t) : decision =
  let sweep () = Tuning.tune ?engine ?jobs ?candidates ?st machine enc coo in
  let model () =
    let f = Features.extract ~machine enc coo in
    (f, Cost_model.predict machine f)
  in
  match mode with
  | `Sweep ->
    let s = sweep () in
    { d_mode = mode; d_chosen = s.Tuning.chosen; d_features = None;
      d_model = None; d_sweep = Some s; d_agree = None;
      d_delta_cycles = None; d_tune_cycles = Tuning.profile_cycles s }
  | `Model ->
    let f, p = model () in
    { d_mode = mode; d_chosen = p.Cost_model.p_variant;
      d_features = Some f; d_model = Some p; d_sweep = None;
      d_agree = None; d_delta_cycles = None;
      d_tune_cycles = f.Features.f_extract_cycles }
  | `Hybrid ->
    (* The sweep's decision is served — hybrid exists to measure the
       model against ground truth without changing behaviour. *)
    let f, p = model () in
    let s = sweep () in
    let agree = Cost_model.same_choice p.Cost_model.p_variant s.Tuning.chosen in
    let delta =
      if agree then Some 0
      else
        match
          ( profile_lookup s p.Cost_model.p_variant,
            profile_lookup s s.Tuning.chosen )
        with
        | Some m, Some c -> Some (m - c)
        | _ -> None
    in
    { d_mode = mode; d_chosen = s.Tuning.chosen; d_features = Some f;
      d_model = Some p; d_sweep = Some s; d_agree = Some agree;
      d_delta_cycles = delta;
      d_tune_cycles = Tuning.profile_cycles s + f.Features.f_extract_cycles }

let describe (d : decision) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "tune mode: %s\n" (Tuning.mode_to_string d.d_mode));
  (match d.d_sweep with
   | Some s -> Buffer.add_string buf (Tuning.describe s)
   | None -> ());
  (match d.d_model with
   | Some p -> Buffer.add_string buf (Cost_model.describe p)
   | None -> ());
  (match d.d_agree with
   | Some a ->
     Buffer.add_string buf
       (Printf.sprintf "model vs sweep: %s%s\n"
          (if a then "agree" else "disagree")
          (match d.d_delta_cycles with
           | Some dc when dc <> 0 ->
             Printf.sprintf " (model pick %+d profiled cycles)" dc
           | _ -> ""))
   | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "serving: %s\n" (Pipeline.variant_name d.d_chosen));
  Buffer.contents buf
