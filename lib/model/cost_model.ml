(* The interpretable feature -> prefetch-configuration cost model.

   Ahrens & Kjolstad's asymptotic-cost-model direction (PAPERS.md),
   specialised to the one decision our tuner makes: Baseline (roll
   prefetching back) versus ASaP at some lookahead distance. The model
   is two calibrated pieces, both readable straight off the paper's
   evaluation:

   - a rollback knee: below [c_rollback_mpki] estimated L2 MPKI the
     matrix is cache-resident and prefetching only adds overhead
     (Fig. 6's y < 1 region, EXPERIMENTS.md brackets the break-even in
     [0.9, 5.8] MPKI);
   - a linear speedup estimate [c_intercept + c_slope * est_mpki]
     (Fig. 6/8's regression form): ASaP is chosen only when the
     predicted speedup clears [c_min_speedup];
   - a distance ladder: EXPERIMENTS.md's distance sweep shows 0.92x at
     d=4 rising to a 1.66-1.75x plateau over d=16..128 on the scaled
     machine, so the model only distinguishes tiny matrices (under
     [c_tiny_nnz] stored elements the operand set is cache-resident
     after first touch; prefetching only covers the short cold sweep and
     shallow lookahead wins) from everything else (the plateau).

   Coefficients are calibrated offline by tools/fit_cost_model.ml, which
   refits the speedup law over the synthetic suite's sweep profiles;
   [default] holds the fitted values. The model-vs-sweep accuracy gates
   are rows of [bench/main.exe check tune]. *)

module Machine = Asap_sim.Machine
module Pipeline = Asap_core.Pipeline
module Asap = Asap_prefetch.Asap

type coeffs = {
  c_rollback_mpki : float;   (* roll back below this estimated MPKI *)
  c_intercept : float;       (* predicted speedup at MPKI -> 0 *)
  c_slope : float;           (* predicted speedup gain per unit MPKI *)
  c_min_speedup : float;     (* choose ASaP only above this *)
  c_tiny_nnz : int;          (* stored-element count splitting the ladder *)
  c_dist_short : int;        (* distance for tiny matrices *)
  c_dist_long : int;         (* distance for everything else *)
}

let default =
  { c_rollback_mpki = 2.0;   (* the sweep's own knee (Tuning.tune) *)
    c_intercept = 0.90;      (* Fig. 6: ~10% overhead at MPKI -> 0 *)
    c_slope = 0.013;         (* break-even near 7.7 est MPKI *)
    c_min_speedup = 1.0;
    c_tiny_nnz = 4096;
    c_dist_short = 8;
    c_dist_long = 32 }       (* mid-plateau; the sweep's usual pick *)

type prediction = {
  p_variant : Pipeline.variant;
  p_speedup : float;           (* predicted ASaP speedup over baseline *)
  p_distance : int option;     (* Some iff ASaP was chosen *)
  p_reason : string;           (* one-line explanation, for logs *)
}

(** [predict machine f] maps features to a variant under the [default]
    coefficients. Pure and O(1): all the work happened in
    {!Features.extract}. *)
let predict (_machine : Machine.t) (f : Features.t) : prediction =
  let coeffs = default in
  let mpki = f.Features.f_est_mpki in
  let speedup = coeffs.c_intercept +. (coeffs.c_slope *. mpki) in
  if mpki < coeffs.c_rollback_mpki then
    { p_variant = Pipeline.Baseline; p_speedup = speedup; p_distance = None;
      p_reason =
        Printf.sprintf "rollback: est %.2f MPKI < %.2f knee" mpki
          coeffs.c_rollback_mpki }
  else if speedup <= coeffs.c_min_speedup then
    { p_variant = Pipeline.Baseline; p_speedup = speedup; p_distance = None;
      p_reason =
        Printf.sprintf
          "rollback: predicted speedup %.3f <= %.2f at est %.2f MPKI"
          speedup coeffs.c_min_speedup mpki }
  else begin
    let d =
      if f.Features.f_nnz < coeffs.c_tiny_nnz then coeffs.c_dist_short
      else coeffs.c_dist_long
    in
    { p_variant = Pipeline.Asap { Asap.default with Asap.distance = d };
      p_speedup = speedup; p_distance = Some d;
      p_reason =
        Printf.sprintf
          "asap d=%d: est %.2f MPKI, predicted speedup %.3f, %d stored"
          d mpki speedup f.Features.f_nnz }
  end

(** Variants compare equal for agreement accounting when they name the
    same code: same constructor, and for ASaP the same distance (the
    only field tuning varies). *)
let same_choice (a : Pipeline.variant) (b : Pipeline.variant) : bool =
  match (a, b) with
  | Pipeline.Baseline, Pipeline.Baseline -> true
  | Pipeline.Asap ca, Pipeline.Asap cb ->
    ca.Asap.distance = cb.Asap.distance
  | Pipeline.Ainsworth_jones _, Pipeline.Ainsworth_jones _ -> true
  | _ -> false

let describe (p : prediction) : string =
  Printf.sprintf "model: %s (%s)\n"
    (Pipeline.variant_name p.p_variant)
    p.p_reason
