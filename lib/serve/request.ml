(* The serving request model.

   A request names everything needed to reproduce one kernel execution:
   the kernel family, the sparse format, the matrix (by deterministic
   generator spec, so requests are self-contained values rather than
   paths), the code variant, the engine and the machine preset — plus
   scheduling metadata: a stable id, a virtual arrival time and an
   optional latency budget. Requests travel as JSONL (one object per
   line), parsed with the in-repo {!Asap_obs.Jsonu} parser. *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Machine = Asap_sim.Machine
module Exec = Asap_sim.Exec
module Driver = Asap_core.Driver
module Pipeline = Asap_core.Pipeline
module Asap = Asap_prefetch.Asap
module Aj = Asap_prefetch.Ainsworth_jones
module Jsonu = Asap_obs.Jsonu
module Tuning = Asap_core.Tuning

type kernel = [ `Spmv | `Spmm | `Sddmm | `Ttv ]

(** [`Tuned] defers the variant choice to profile-guided {!Tuning.tune}
    at build time; the others name a fixed variant with its default
    configuration. *)
type variant = [ `Baseline | `Asap | `Aj | `Tuned ]

(** A latency budget relative to the request's arrival, in virtual
    (simulated) time: milliseconds directly, or simulated cycles of the
    request's machine. *)
type deadline = Ms of float | Cycles of int

type t = {
  id : string;
  kernel : kernel;
  format : string;          (* coo/csr/csc/dcsr; csf for ttv *)
  matrix : string;          (* Generate.of_spec string *)
  variant : variant;
  engine : Exec.engine;
  machine : string;         (* preset name, see machine_of *)
  tune_mode : Tuning.mode;  (* how a `Tuned variant is decided *)
  pipeline : string option; (* explicit pass-pipeline spec override *)
  tenant : string;          (* admission-quota accounting key *)
  arrival_ms : float;       (* virtual arrival time *)
  deadline : deadline option;
  specialize : bool;        (* serve the AoT-specialized artefact *)
}

let default_tenant = "default"

let kernel_to_string = function
  | `Spmv -> "spmv"
  | `Spmm -> "spmm"
  | `Sddmm -> "sddmm"
  | `Ttv -> "ttv"

let kernel_of_string = function
  | "spmv" -> Some `Spmv
  | "spmm" -> Some `Spmm
  | "sddmm" -> Some `Sddmm
  | "ttv" -> Some `Ttv
  | _ -> None

let variant_to_string = function
  | `Baseline -> "baseline"
  | `Asap -> "asap"
  | `Aj -> "aj"
  | `Tuned -> "tuned"

let variant_of_string = function
  | "baseline" -> Some `Baseline
  | "asap" -> Some `Asap
  | "aj" -> Some `Aj
  | "tuned" -> Some `Tuned
  | _ -> None

(* The matrix formats: coo, csr, csc, dcsr, and blocked rows — "bsr" is
   the 4x4 default, "bsr<bh>x<bw>" names the block shape explicitly
   (e.g. "bsr2x8"). *)
let matrix_encoding_of_format (format : string) : Encoding.t option =
  match format with
  | "coo" -> Some (Encoding.coo ())
  | "csr" -> Some (Encoding.csr ())
  | "csc" -> Some (Encoding.csc ())
  | "dcsr" -> Some (Encoding.dcsr ())
  | "bsr" -> Some (Encoding.bsr ~bh:4 ~bw:4 ())
  | f ->
    (match Scanf.sscanf_opt f "bsr%dx%d%!" (fun bh bw -> (bh, bw)) with
     | Some (bh, bw) when bh >= 1 && bw >= 1 -> Some (Encoding.bsr ~bh ~bw ())
     | _ -> None)

let encoding_of_format (k : kernel) (format : string) : Encoding.t option =
  match (k, format) with
  | (`Spmv | `Spmm | `Sddmm), f -> matrix_encoding_of_format f
  | `Ttv, "csf" -> Some (Encoding.csf 3)
  | `Ttv, _ -> None

(** [spec r] is the {!Driver.kernel_spec} the request names.
    @raise Invalid_argument on a kernel/format mismatch. *)
let spec (r : t) : Driver.kernel_spec =
  match (r.kernel, encoding_of_format r.kernel r.format) with
  | _, None ->
    invalid_arg
      (Printf.sprintf "Request %s: format %S does not fit kernel %s" r.id
         r.format (kernel_to_string r.kernel))
  | `Spmv, Some enc -> Driver.Spmv enc
  | `Spmm, Some enc -> Driver.Spmm enc
  | `Sddmm, Some enc -> Driver.Sddmm enc
  | `Ttv, Some enc -> Driver.Ttv (Some enc)

(** [fixed_variant v] is the pipeline variant for the non-[`Tuned]
    cases (default configurations). *)
let fixed_variant : variant -> Pipeline.variant option = function
  | `Baseline -> Some Pipeline.Baseline
  | `Asap -> Some (Pipeline.Asap Asap.default)
  | `Aj -> Some (Pipeline.Ainsworth_jones Aj.default)
  | `Tuned -> None

let machine_presets = [ "default"; "optimized"; "optimized-spmm" ]

(** [machine_of r] resolves the request's machine preset. The presets
    mirror the CLI's [--hw] choices over the scaled evaluation machine.
    @raise Invalid_argument on an unknown preset. *)
let machine_of (r : t) : Machine.t =
  match r.machine with
  | "default" -> Machine.gracemont_scaled ~hw:Machine.hw_default ()
  | "optimized" -> Machine.gracemont_scaled ~hw:Machine.hw_optimized ()
  | "optimized-spmm" ->
    Machine.gracemont_scaled ~hw:Machine.hw_optimized_spmm ()
  | m ->
    invalid_arg
      (Printf.sprintf "Request %s: unknown machine preset %S (expected %s)"
         r.id m (String.concat "/" machine_presets))

(** [deadline_ms r machine] is the absolute virtual-time deadline, if
    any: arrival plus the budget (cycle budgets convert at the machine's
    frequency). *)
let deadline_ms (r : t) (machine : Machine.t) : float option =
  match r.deadline with
  | None -> None
  | Some (Ms b) -> Some (r.arrival_ms +. b)
  | Some (Cycles c) -> Some (r.arrival_ms +. Machine.cycles_to_ms machine c)

(** [fingerprint r] is the canonical cache key: every field that affects
    the built artefact (sparsified IR, bytecode program, tuning
    decision) and nothing that doesn't (id, arrival, deadline). Equal
    fingerprints are servable by one cache entry — the tenant is
    scheduling metadata like id and arrival, so tenants share entries. *)
let fingerprint (r : t) : string =
  (* The format in canonical form too: "bsr" and "bsr4x4" are one
     encoding. A format that does not fit the kernel keys as spelled;
     building it fails either way. *)
  let format =
    match encoding_of_format r.kernel r.format with
    | Some enc -> String.lowercase_ascii enc.Encoding.name
    | None -> r.format
  in
  let base =
    [ kernel_to_string r.kernel; format; r.matrix; r.machine;
      variant_to_string r.variant; Exec.engine_to_string r.engine ]
  in
  (* The tuning mode only shapes the artefact when there is a tuning
     decision to make; fixed-variant requests share cache entries across
     modes.  An explicit pipeline fixes the artefact outright, so it
     supersedes the mode either way. *)
  let base =
    match (r.pipeline, r.variant) with
    | Some _, _ | None, (`Baseline | `Asap | `Aj) -> base
    | None, `Tuned -> base @ [ Tuning.mode_to_string r.tune_mode ]
  in
  (* Canonical form, not the spelling: "asap" and "asap{d=32,...}" with
     default parameters are the same artefact and must share an entry. *)
  let base =
    match r.pipeline with
    | None -> base
    | Some p -> base @ [ "pipeline=" ^ Asap_pass.Runner.canonical_of_string p ]
  in
  (* A specialized artefact bakes the request's resolved facts into its
     bytecode, so it can never serve (or be served by) the generic
     entry of the same build inputs. *)
  let base = if r.specialize then base @ [ "spec" ] else base in
  String.concat "|" base

(** [fallback r] is the degraded form a timed-out request is served as:
    the untuned, prefetch-free baseline of the same kernel on the same
    matrix and machine. *)
let fallback (r : t) : t = { r with variant = `Baseline; pipeline = None }

(** [override ?engine ?tune_mode ?specialize ?pipelines r] is [r] with
    each given field replaced; [pipelines] maps tenants to pass-pipeline
    specs, and [r]'s tenant entry, if any, replaces its pipeline. *)
let override ?engine ?tune_mode ?specialize ?(pipelines = []) (r : t) : t =
  { r with
    engine = Option.value engine ~default:r.engine;
    tune_mode = Option.value tune_mode ~default:r.tune_mode;
    specialize = Option.value specialize ~default:r.specialize;
    pipeline =
      (match List.assoc_opt r.tenant pipelines with
       | None -> r.pipeline
       | p -> p) }

(* --- JSONL ----------------------------------------------------------- *)

let to_json (r : t) : Jsonu.t =
  let base =
    [ ("id", Jsonu.Str r.id);
      ("kernel", Jsonu.Str (kernel_to_string r.kernel));
      ("format", Jsonu.Str r.format);
      ("matrix", Jsonu.Str r.matrix);
      ("variant", Jsonu.Str (variant_to_string r.variant));
      ("engine", Jsonu.Str (Exec.engine_to_string r.engine));
      ("machine", Jsonu.Str r.machine);
      ("tune_mode", Jsonu.Str (Tuning.mode_to_string r.tune_mode));
      ("tenant", Jsonu.Str r.tenant);
      ("arrival_ms", Jsonu.Float r.arrival_ms) ]
  in
  let base =
    match r.pipeline with
    | None -> base
    | Some p -> base @ [ ("pipeline", Jsonu.Str p) ]
  in
  (* Emitted only when set, so pre-specialization streams round-trip
     byte-identically. *)
  let base =
    if r.specialize then base @ [ ("specialize", Jsonu.Bool true) ] else base
  in
  let deadline =
    match r.deadline with
    | None -> []
    | Some (Ms b) -> [ ("deadline_ms", Jsonu.Float b) ]
    | Some (Cycles c) -> [ ("deadline_cycles", Jsonu.Int c) ]
  in
  Jsonu.Obj (base @ deadline)

let to_line r = Jsonu.to_string (to_json r)

(** [of_json j] parses one request object. Required fields: [id],
    [kernel], [matrix]. Defaults: format [csr] ([csf] for ttv), variant
    [asap], the default engine, machine [optimized], tune_mode [sweep],
    tenant [default], arrival 0, no deadline, no pipeline override
    (an explicit ["pipeline"] spec is validated against the pass
    registry at ingest). *)
let of_json (j : Jsonu.t) : (t, string) result =
  let str k = Option.bind (Jsonu.member k j) Jsonu.to_str_opt in
  let num k = Option.bind (Jsonu.member k j) Jsonu.to_float_opt in
  let intf k = Option.bind (Jsonu.member k j) Jsonu.to_int_opt in
  match Jsonu.member "kind" j with
  | Some (Jsonu.Str kind) when not (String.equal kind "request") ->
    Error
      (Printf.sprintf
         "item of kind %S in a request-only stream (updates need \
          Request.load_items)"
         kind)
  | _ ->
  match (str "id", str "kernel", str "matrix") with
  | None, _, _ -> Error "request missing \"id\""
  | _, None, _ -> Error "request missing \"kernel\""
  | _, _, None -> Error "request missing \"matrix\""
  | Some id, Some kernel, Some matrix ->
    (match kernel_of_string kernel with
     | None -> Error (Printf.sprintf "request %s: unknown kernel %S" id kernel)
     | Some kernel ->
       let format =
         match str "format" with
         | Some f -> f
         | None -> (match kernel with `Ttv -> "csf" | _ -> "csr")
       in
       let format_r =
         if encoding_of_format kernel format = None then
           Error
             (Printf.sprintf "request %s: format %S does not fit kernel %s" id
                format (kernel_to_string kernel))
         else Ok format
       in
       let variant_r =
         match str "variant" with
         | None -> Ok `Asap
         | Some v ->
           (match variant_of_string v with
            | Some v -> Ok v
            | None ->
              Error (Printf.sprintf "request %s: unknown variant %S" id v))
       in
       let engine_r =
         match str "engine" with
         | None -> Ok Exec.default_engine
         | Some e ->
           (match Exec.engine_of_string e with
            | Some e -> Ok e
            | None ->
              Error
                (Printf.sprintf "request %s: unknown engine %S (expected %s)"
                   id e Exec.valid_engines))
       in
       let tune_mode_r =
         match str "tune_mode" with
         | None -> Ok Tuning.default_mode
         | Some m ->
           (match Tuning.mode_of_string m with
            | Some m -> Ok m
            | None ->
              Error
                (Printf.sprintf
                   "request %s: unknown tune_mode %S (expected %s)" id m
                   Tuning.valid_modes))
       in
       let pipeline_r =
         match str "pipeline" with
         | None -> Ok None
         | Some p ->
           (* Validate against the pass registry up front: a request
              carrying a bad spec must fail at ingest with a line
              number, not deep inside a build worker. *)
           (match Asap_pass.Runner.resolve p with
            | (_ : Asap_pass.Runner.resolved) -> Ok (Some p)
            | exception Invalid_argument m ->
              Error (Printf.sprintf "request %s: bad pipeline: %s" id m))
       in
       let machine_r =
         (* Validate the preset at ingest: an unknown machine must fail
            with this line's number, not as an Invalid_argument from
            machine_of deep inside a build worker. *)
         let m = Option.value (str "machine") ~default:"optimized" in
         if List.mem m machine_presets then Ok m
         else
           Error
             (Printf.sprintf
                "request %s: unknown machine preset %S (expected %s)" id m
                (String.concat "/" machine_presets))
       in
       let deadline =
         match (num "deadline_ms", intf "deadline_cycles") with
         | Some b, _ -> Some (Ms b)
         | None, Some c -> Some (Cycles c)
         | None, None -> None
       in
       (match (format_r, variant_r, engine_r, tune_mode_r, pipeline_r,
               machine_r)
        with
        | Error e, _, _, _, _, _ | _, Error e, _, _, _, _
        | _, _, Error e, _, _, _ | _, _, _, Error e, _, _
        | _, _, _, _, Error e, _ | _, _, _, _, _, Error e -> Error e
        | Ok format, Ok variant, Ok engine, Ok tune_mode, Ok pipeline,
          Ok machine ->
          let specialize =
            match Jsonu.member "specialize" j with
            | Some b -> Option.value (Jsonu.to_bool_opt b) ~default:false
            | None -> false
          in
          Ok
            { id; kernel; format; matrix; variant; engine; tune_mode;
              pipeline; machine;
              tenant = Option.value (str "tenant") ~default:default_tenant;
              arrival_ms = Option.value (num "arrival_ms") ~default:0.;
              deadline; specialize }))

let of_line (line : string) : (t, string) result =
  match Jsonu.of_string line with
  | Error e -> Error ("bad request JSON: " ^ e)
  | Ok j -> of_json j

(* One JSONL reader: blank and [#]-comment lines are skipped, every
   other line goes through [parse], and the first error carries the
   1-based line number. *)
let read_jsonl (parse : string -> ('a, string) result) (path : string) :
    ('a list, string) result =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = In_channel.input_lines ic in
      let rec go n acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
          let line = String.trim line in
          if line = "" || line.[0] = '#' then go (n + 1) acc rest
          else
            (match parse line with
             | Ok x -> go (n + 1) (x :: acc) rest
             | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e))
      in
      go 1 [] lines)

(** [load path] reads a JSONL request file. *)
let load (path : string) : (t list, string) result = read_jsonl of_line path

(* --- Streaming updates ------------------------------------------------ *)

module Update = struct
  (* A batched delta message against a matrix artefact: at virtual time
     [u_at_ms] the matrix named by spec [u_matrix] changes — every
     (i, j, v) delta sets entry (i, j) to v. Requests arriving at or
     after an update see the updated matrix; requests that arrived
     before it keep the version their arrival saw (arrival-time
     consistency), which is what makes the replay a pure function of
     the item list. *)
  type t = {
    u_id : string;
    u_matrix : string;                 (* Generate.of_spec string *)
    u_at_ms : float;                   (* virtual fire time *)
    u_deltas : (int * int * float) array;
  }

  let to_json (u : t) : Jsonu.t =
    Jsonu.Obj
      [ ("kind", Jsonu.Str "update");
        ("id", Jsonu.Str u.u_id);
        ("matrix", Jsonu.Str u.u_matrix);
        ("at_ms", Jsonu.Float u.u_at_ms);
        ("deltas",
         Jsonu.List
           (Array.to_list
              (Array.map
                 (fun (i, j, v) ->
                   Jsonu.List [ Jsonu.Int i; Jsonu.Int j; Jsonu.Float v ])
                 u.u_deltas))) ]

  let to_line u = Jsonu.to_string (to_json u)

  let of_json (j : Jsonu.t) : (t, string) result =
    let str k = Option.bind (Jsonu.member k j) Jsonu.to_str_opt in
    let num k = Option.bind (Jsonu.member k j) Jsonu.to_float_opt in
    match (str "id", str "matrix") with
    | None, _ -> Error "update missing \"id\""
    | _, None -> Error "update missing \"matrix\""
    | Some u_id, Some u_matrix ->
      let delta_of = function
        | Jsonu.List [ i; jj; v ] ->
          (match (Jsonu.to_int_opt i, Jsonu.to_int_opt jj,
                  Jsonu.to_float_opt v)
           with
           | Some i, Some jj, Some v when i >= 0 && jj >= 0 ->
             Ok (i, jj, v)
           | _ -> Error ())
        | _ -> Error ()
      in
      let deltas_r =
        match Jsonu.member "deltas" j with
        | None -> Error (Printf.sprintf "update %s: missing \"deltas\"" u_id)
        | Some d ->
          (match Jsonu.to_list_opt d with
           | None ->
             Error (Printf.sprintf "update %s: \"deltas\" not a list" u_id)
           | Some ds ->
             let rec go k acc = function
               | [] -> Ok (Array.of_list (List.rev acc))
               | d :: rest ->
                 (match delta_of d with
                  | Ok t -> go (k + 1) (t :: acc) rest
                  | Error () ->
                    Error
                      (Printf.sprintf
                         "update %s: delta %d is not [i, j, v] with \
                          non-negative coordinates"
                         u_id (k + 1)))
             in
             go 0 [] ds)
      in
      (match deltas_r with
       | Error e -> Error e
       | Ok u_deltas ->
         Ok
           { u_id; u_matrix;
             u_at_ms = Option.value (num "at_ms") ~default:0.; u_deltas })

  (** [apply u coo] is [coo] with every delta applied (set semantics:
      existing entries at (i, j) are replaced — duplicates collapse to
      the new value — and fresh coordinates append in delta order).
      @raise Invalid_argument on rank <> 2 or out-of-bounds deltas. *)
  let apply (u : t) (coo : Coo.t) : Coo.t =
    if Coo.rank coo <> 2 then
      invalid_arg
        (Printf.sprintf "Update %s: matrix %s is not rank-2" u.u_id
           u.u_matrix);
    let rows = coo.Coo.dims.(0) and cols = coo.Coo.dims.(1) in
    (* Coordinates key as the row-major offset [i * cols + j]. *)
    let value : (int, float) Hashtbl.t =
      Hashtbl.create (max 16 (Array.length u.u_deltas))
    in
    Array.iter
      (fun (i, j, v) ->
        if i < 0 || i >= rows || j < 0 || j >= cols then
          invalid_arg
            (Printf.sprintf "Update %s: delta (%d, %d) outside %dx%d" u.u_id
               i j rows cols);
        Hashtbl.replace value ((i * cols) + j) v)
      u.u_deltas;
    let ci = coo.Coo.crd.(0) and cj = coo.Coo.crd.(1) in
    let vals = Array.copy coo.Coo.vals in
    (* Set an existing coordinate's first occurrence to the new value and
       zero the rest: duplicate base entries sum under sorted_dedup, so
       the stored total is exactly the delta's value. *)
    let hit : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    for k = 0 to Coo.nnz coo - 1 do
      let key = (ci.(k) * cols) + cj.(k) in
      match Hashtbl.find_opt value key with
      | None -> ()
      | Some v ->
        vals.(k) <- (if Hashtbl.mem hit key then 0. else v);
        Hashtbl.replace hit key ()
    done;
    (* Fresh coordinates append in first-occurrence delta order. *)
    let fresh = ref [] in
    let seen : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    Array.iter
      (fun (i, j, _) ->
        let key = (i * cols) + j in
        if not (Hashtbl.mem hit key || Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          fresh := (i, j, Hashtbl.find value key) :: !fresh
        end)
      u.u_deltas;
    let fresh = Array.of_list (List.rev !fresh) in
    let column f = Array.map f fresh in
    Coo.create ~dims:(Array.copy coo.Coo.dims)
      ~crd:
        [| Array.append ci (column (fun (i, _, _) -> i));
           Array.append cj (column (fun (_, j, _) -> j)) |]
      ~vals:(Array.append vals (column (fun (_, _, v) -> v)))
end

(** A line of a mixed request/update stream. *)
type item = Req of t | Up of Update.t

let item_of_line (line : string) : (item, string) result =
  match Jsonu.of_string line with
  | Error e -> Error ("bad item JSON: " ^ e)
  | Ok j ->
    (match Jsonu.member "kind" j with
     | Some (Jsonu.Str "update") -> Result.map (fun u -> Up u) (Update.of_json j)
     | _ -> Result.map (fun r -> Req r) (of_json j))

(** [load_items path] reads a mixed JSONL stream: request lines plus
    [{"kind": "update", ...}] lines, in file order. *)
let load_items (path : string) : (item list, string) result =
  read_jsonl item_of_line path

(** [split_items items] separates a mixed stream into its requests and
    updates, each in stream order. *)
let split_items (items : item list) : t list * Update.t list =
  let reqs, ups =
    List.fold_left
      (fun (rs, us) -> function
        | Req r -> (r :: rs, us)
        | Up u -> (rs, u :: us))
      ([], []) items
  in
  (List.rev reqs, List.rev ups)
