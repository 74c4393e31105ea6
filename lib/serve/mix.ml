(* Synthetic serving traffic.

   Real serving load is skewed: a few hot kernel configurations take
   most of the traffic while a long tail of cold ones churns the cache.
   [hot_cold] models that with a Zipf distribution over a profile list —
   profile [i] drawn with weight 1/(i+1)^alpha — and exponential
   inter-arrival gaps, all from an explicit {!Asap_workloads.Rng} seed
   so a (seed, n, profiles) triple always yields the same request list. *)

module Exec = Asap_sim.Exec
module Rng = Asap_workloads.Rng
module Generate = Asap_workloads.Generate
module Coo = Asap_tensor.Coo
module Tuning = Asap_core.Tuning

type profile = {
  p_kernel : Request.kernel;
  p_format : string;
  p_matrix : string;
  p_variant : Request.variant;
  p_tune_mode : Tuning.mode;
  p_specialize : bool;
}

let profile ?(kernel = `Spmv) ?(format = "csr") ?(variant = `Asap)
    ?(tune_mode = Tuning.default_mode) ?(specialize = false) matrix =
  { p_kernel = kernel; p_format = format; p_matrix = matrix;
    p_variant = variant; p_tune_mode = tune_mode; p_specialize = specialize }

(* A small spread over the workload suite: hot head on the irregular
   matrices prefetching helps most, cold tail over formats, variants and
   kernels. Order matters — Zipf weight falls with position. *)
let default_profiles () : profile list =
  [ profile "powerlaw:3000,6";
    profile ~variant:`Tuned "powerlaw:3000,6";
    profile ~format:"dcsr" "heavytail:2500,10000,10";
    profile "uniform:2500,12000";
    profile ~variant:`Baseline "powerlaw:3000,6";
    profile ~kernel:`Spmm "road:2000,3";
    profile ~format:"csc" "uniform:2500,12000";
    profile "banded:2500,8";
    profile ~kernel:`Ttv ~format:"csf" "tensor3:40,40,40,8000";
    profile ~variant:`Aj "stencil2d:50";
    (* Scenario-diversity tail: the sampled dense-dense product and a
       blocked format, cold enough not to displace the classic head. *)
    profile ~kernel:`Sddmm "powerlaw:3000,6";
    profile ~format:"bsr4x4" "fem:180,4,3";
  ]

(* Cumulative Zipf weights over profile positions: [cum.(i)] is the sum
   of [1/(j+1)^alpha] for [j <= i]. Computed once per request list. *)
let zipf_cumulative ~alpha (nprof : int) : float array =
  let acc = ref 0. in
  Array.init nprof (fun i ->
      acc := !acc +. (1. /. Float.pow (float_of_int (i + 1)) alpha);
      !acc)

(* Inverse-CDF pick from precomputed cumulative weights. *)
let zipf_pick rng (cum : float array) : int =
  let nprof = Array.length cum in
  let u = Rng.float rng *. cum.(nprof - 1) in
  let pick = ref (nprof - 1) in
  (try
     Array.iteri
       (fun i ci ->
         if u < ci then begin
           pick := i;
           raise Exit
         end)
       cum
   with Exit -> ());
  !pick

let hot_cold ?(alpha = 1.2) ?(mean_gap_ms = 0.05) ?deadline_ms
    ?(tenants = []) ~seed ~n (profiles : profile list) : Request.t list =
  if n < 0 then invalid_arg "Mix.hot_cold: n < 0";
  let profs = Array.of_list profiles in
  let nprof = Array.length profs in
  if nprof = 0 then invalid_arg "Mix.hot_cold: no profiles";
  List.iter
    (fun (name, w) ->
      if w <= 0. then
        invalid_arg
          (Printf.sprintf "Mix.hot_cold: non-positive weight for tenant %S"
             name))
    tenants;
  let rng = Rng.create seed in
  let cum = zipf_cumulative ~alpha nprof in
  (* Tenant draws happen only with >= 2 tenants, and strictly after the
     profile and gap draws, so single-tenant (and legacy no-tenant)
     traces consume the exact same RNG stream as before tenants
     existed — byte-identical request lists for old (seed, n) pairs. *)
  let tenant_cum =
    if List.length tenants < 2 then [||]
    else begin
      let acc = ref 0. in
      Array.of_list
        (List.map
           (fun (name, w) ->
             acc := !acc +. w;
             (name, !acc))
           tenants)
    end
  in
  let pick_tenant () =
    match tenants with
    | [] -> Request.default_tenant
    | [ (name, _) ] -> name
    | _ ->
      let total = snd tenant_cum.(Array.length tenant_cum - 1) in
      let u = Rng.float rng *. total in
      let pick = ref (fst tenant_cum.(Array.length tenant_cum - 1)) in
      (try
         Array.iter
           (fun (name, ci) ->
             if u < ci then begin
               pick := name;
               raise Exit
             end)
           tenant_cum
       with Exit -> ());
      !pick
  in
  let t = ref 0. in
  List.init n (fun i ->
      let p = profs.(zipf_pick rng cum) in
      let gap = -.mean_gap_ms *. log (1. -. Rng.float rng) in
      t := !t +. gap;
      let tenant = pick_tenant () in
      { Request.id = Printf.sprintf "r%05d" i;
        kernel = p.p_kernel; format = p.p_format; matrix = p.p_matrix;
        variant = p.p_variant; engine = Exec.default_engine;
        machine = "optimized";
        tune_mode = p.p_tune_mode; pipeline = None; tenant; arrival_ms = !t;
        deadline = Option.map (fun ms -> Request.Ms ms) deadline_ms;
        specialize = p.p_specialize })

(* Uniform in-bounds deltas per streaming update. *)
let deltas_per_update = 4

(* Streaming deltas against the rank-2 matrices of a profile list. The
   generator resolves each distinct spec once (deterministically) just
   to learn its shape, then draws uniform in-bounds coordinates — so an
   (seed, n, profiles) triple always yields the same update stream, on
   a separate RNG stream from {!hot_cold} (seeds are xored with a tag)
   so adding updates never perturbs the request draw. *)
let update_stream ?(mean_gap_ms = 1.0) ~seed ~n (profiles : profile list) :
    Request.Update.t list =
  if n < 0 then invalid_arg "Mix.update_stream: n < 0";
  let specs =
    List.filter_map
      (fun p -> if p.p_kernel = `Ttv then None else Some p.p_matrix)
      profiles
    |> List.fold_left (fun acc s -> if List.mem s acc then acc else s :: acc) []
    |> List.rev
  in
  if specs = [] then invalid_arg "Mix.update_stream: no rank-2 profiles";
  let shapes =
    List.map
      (fun spec ->
        match Generate.of_spec spec with
        | Ok coo -> (spec, coo.Coo.dims.(0), coo.Coo.dims.(1))
        | Error e -> invalid_arg ("Mix.update_stream: " ^ e))
      specs
    |> Array.of_list
  in
  let rng = Rng.create (seed lxor 0x5eed_a11d) in
  let t = ref 0. in
  List.init n (fun k ->
      let spec, rows, cols = shapes.(Rng.int rng (Array.length shapes)) in
      let gap = -.mean_gap_ms *. log (1. -. Rng.float rng) in
      t := !t +. gap;
      let deltas =
        Array.init deltas_per_update (fun _ ->
            let i = Rng.int rng rows in
            let j = Rng.int rng cols in
            ((i, j, (2. *. Rng.float rng) -. 1.)))
      in
      { Request.Update.u_id = Printf.sprintf "u%05d" k; u_matrix = spec;
        u_at_ms = !t; u_deltas = deltas })
