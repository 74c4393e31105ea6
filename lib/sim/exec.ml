(* Top-level execution drivers and the PMU-style report (paper §4.4). *)

open Asap_ir

(** One load site of the executed function, resolved from its pc (the
    load's Ir vid) to the buffer it reads and the source loop nest it sits
    in, with the misses attributed to it. *)
type op_miss = {
  om_pc : int;                  (* the load's Ir vid *)
  om_buf : string;              (* buffer read by the load *)
  om_loop : string;             (* loop-tag path, e.g. "rows/cols"; "top" *)
  om_depth : int;               (* loop nesting depth of the site *)
  om_l1_miss : int;
  om_l2_miss : int;
}

type report = {
  rp_machine : Machine.t;
  rp_threads : int;
  rp_cycles : int;              (* max over cores *)
  rp_instructions : int;        (* summed over cores *)
  rp_flops : int;
  rp_loads : int;
  rp_stores : int;
  rp_prefetch_instrs : int;
  rp_mem : Hierarchy.stats;
  rp_op_misses : op_miss list;  (* pc-ascending, zero-miss sites omitted *)
}

(* Walk the function body collecting (vid -> buffer, loop path, depth) for
   every load, so the hierarchy's per-pc miss counts can be resolved to
   source sites. *)
let load_sites (fn : Ir.func) : (int * (string * string * int)) list =
  let acc = ref [] in
  let rec block path depth b = List.iter (stmt path depth) b
  and stmt path depth = function
    | Ir.Let (v, Ir.Load (b, _)) ->
      let loop =
        match path with [] -> "top" | l -> String.concat "/" (List.rev l)
      in
      (* Loop tags are free-form debug labels; keep counter names
         space-free so the dotted catalogue stays machine-friendly. *)
      let loop = String.map (fun c -> if c = ' ' then '_' else c) loop in
      acc := (v.Ir.vid, (b.Ir.bname, loop, depth)) :: !acc
    | Ir.Let _ | Ir.Store _ | Ir.Prefetch _ -> ()
    | Ir.For f -> block (f.Ir.f_tag :: path) (depth + 1) f.Ir.f_body
    | Ir.While w ->
      block (w.Ir.w_tag :: path) (depth + 1) w.Ir.w_cond;
      block (w.Ir.w_tag :: path) (depth + 1) w.Ir.w_body
    | Ir.If (_, t, e) ->
      block path depth t;
      block path depth e
  in
  block [] 0 fn.Ir.fn_body;
  !acc

(* Join the hierarchy's per-pc miss counts with the function's load sites.
   Both inputs are pc-keyed; the output is pc-ascending (the stats lists
   already are). Unresolvable pcs (none in practice) get "?" labels. *)
let op_misses (fn : Ir.func) (mem : Hierarchy.stats) : op_miss list =
  let sites = load_sites fn in
  let find pc =
    match List.assoc_opt pc sites with
    | Some s -> s
    | None -> ("?", "?", 0)
  in
  let l2 = mem.Hierarchy.st_pc_l2_miss in
  List.map
    (fun (pc, l1_misses) ->
      let buf, loop, depth = find pc in
      { om_pc = pc; om_buf = buf; om_loop = loop; om_depth = depth;
        om_l1_miss = l1_misses;
        om_l2_miss =
          (match List.assoc_opt pc l2 with Some n -> n | None -> 0) })
    mem.Hierarchy.st_pc_l1_miss

let aggregate machine threads (fn : Ir.func) (rs : Interp.result array) mem =
  let max_cycles = Array.fold_left (fun m r -> max m r.Interp.r_cycles) 0 rs in
  let sum f = Array.fold_left (fun s r -> s + f r) 0 rs in
  { rp_machine = machine;
    rp_threads = threads;
    rp_cycles = max_cycles;
    rp_instructions = sum (fun r -> r.Interp.r_instructions);
    rp_flops = sum (fun r -> r.Interp.r_flops);
    rp_loads = sum (fun r -> r.Interp.r_loads);
    rp_stores = sum (fun r -> r.Interp.r_stores);
    rp_prefetch_instrs = sum (fun r -> r.Interp.r_prefetches);
    rp_mem = mem;
    rp_op_misses = op_misses fn mem }

(** The execution engine: the tree-walking interpreter ({!Interp}) or
    the flat-bytecode engine ({!Bytecode}).
    They are cycle-exact and value-exact drop-ins for each other
    (differential-tested), so the choice is purely a host-speed
    trade-off. *)
type engine = [ `Interp | `Bytecode ]

let default_engine : engine = `Bytecode

(** Canonical engine names, for option docs and error messages. *)
let valid_engines = "interp|bytecode"

let engine_of_string = function
  | "interp" | "interpreter" -> Some `Interp
  | "bytecode" | "bc" | "flat" -> Some `Bytecode
  | _ -> None

let engine_to_string = function
  | `Interp -> "interp"
  | `Bytecode -> "bytecode"

(* The engine-specific staged form: nothing for the interpreter, the
   flat program for Bytecode. *)
type staged =
  | S_interp
  | S_bytecode of Bytecode.prog

(* A prepared execution: address layout and (for bytecode) the flat
   program, both computed once. The buffer binding is captured —
   re-running reads whatever the bound arrays contain at that moment —
   but the memory hierarchy is created fresh per run, so repeat runs are
   independent simulations. Single- and multi-core runs execute the same
   prepared form. This is the amortisation point the serve subsystem's
   compile cache stores. *)
type prepared = {
  pr_machine : Machine.t;
  pr_fn : Ir.func;
  pr_bound : Runtime.bound array;
  pr_staged : staged;
}

(** [prepare ?engine ?spec machine fn ~bufs] lays out [bufs] in the
    simulated address space and, for the bytecode engine, compiles the
    flat program — the run-independent half of {!run}, done once and
    reused by every {!run_prepared} and {!run_parallel}. When [spec] is
    given, the function is first rewritten by {!Specialize.apply}
    against those facts. *)
let prepare ?(engine = default_engine) ?(spec : Specialize.facts option)
    (machine : Machine.t) (fn : Ir.func)
    ~(bufs : (Ir.buffer * Runtime.rbuf) list) : prepared =
  let fn =
    match spec with
    | None -> fn
    | Some facts -> fst (Specialize.apply facts fn)
  in
  let bound = Runtime.layout fn bufs in
  let staged =
    match engine with
    | `Interp -> S_interp
    | `Bytecode -> S_bytecode (Bytecode.compile fn ~bufs:bound)
  in
  { pr_machine = machine; pr_fn = fn; pr_bound = bound; pr_staged = staged }

(* The one engine dispatch: run [p]'s staged program on one core whose
   memory accesses go through [mem]. *)
let run_core ?slice (p : prepared) ~scalars ~mem : Interp.result =
  let m = p.pr_machine in
  let width = m.Machine.width and rob_size = m.Machine.rob in
  let branch_miss = m.Machine.branch_miss in
  match p.pr_staged with
  | S_interp ->
    Interp.run ?slice ~width ~rob_size ~branch_miss p.pr_fn ~bufs:p.pr_bound
      ~scalars ~mem
  | S_bytecode bp ->
    Bytecode.run ?slice ~width ~rob_size ~branch_miss bp ~scalars ~mem

(** [run_prepared ?obs ?slice p ~scalars] executes [p] on one core of a
    fresh memory hierarchy. Equal in every report field to the {!run}
    that [p] was prepared from. *)
let run_prepared ?obs ?slice (p : prepared) ~(scalars : int list) : report =
  let hier = Hierarchy.create ?obs p.pr_machine in
  let mem =
    { Interp.m_load = (fun ~pc ~addr ~at -> Hierarchy.load hier ~core:0 ~pc ~addr ~at);
      m_store = (fun ~pc ~addr ~at -> Hierarchy.store hier ~core:0 ~pc ~addr ~at);
      m_prefetch =
        (fun ~addr ~locality ~at ->
          Hierarchy.prefetch hier ~core:0 ~addr ~locality ~at) }
  in
  let r = run_core ?slice p ~scalars ~mem in
  let report =
    aggregate p.pr_machine 1 p.pr_fn [| r |] (Hierarchy.stats hier)
  in
  Hierarchy.release hier;
  report

(** [run ?slice machine fn ~bufs ~scalars] executes [fn] on one core;
    [slice] restricts the outermost loop's range (used by profiling). *)
let run ?(engine = default_engine) ?obs ?slice (machine : Machine.t)
    (fn : Ir.func) ~(bufs : (Ir.buffer * Runtime.rbuf) list)
    ~(scalars : int list) : report =
  run_prepared ?obs ?slice (prepare ~engine machine fn ~bufs) ~scalars

(** [run_parallel ?obs p ~threads ~outer_extent ~scalars] executes [p]
    with the dense-outer-loop parallelisation strategy: the outermost
    loop range [0, outer_extent) is split into [threads] contiguous
    slices, one per core, on a shared memory hierarchy. *)
let run_parallel ?obs (p : prepared) ~threads ~outer_extent
    ~(scalars : int list) : report =
  let machine = p.pr_machine in
  if threads < 1 || threads > machine.Machine.cores then
    invalid_arg "Exec.run_parallel: bad thread count";
  let hier = Hierarchy.create ?obs machine in
  let chunk = (outer_extent + threads - 1) / threads in
  let slices =
    Array.init threads (fun t ->
        (t * chunk, min outer_extent ((t + 1) * chunk)))
  in
  let rs =
    Multicore.run hier ~slices ~core_run:(fun ~slice ~mem ->
        run_core ~slice p ~scalars ~mem)
  in
  let report = aggregate machine threads p.pr_fn rs (Hierarchy.stats hier) in
  Hierarchy.release hier;
  report

(* Derived metrics (paper §5). *)

(** L2 misses per kilo-instruction. *)
let l2_mpki r =
  1000. *. float_of_int r.rp_mem.Hierarchy.st_l2_misses
  /. float_of_int (max 1 r.rp_instructions)

(** Work throughput: non-zeros processed per millisecond (paper §5). *)
let throughput_nnz_per_ms r ~nnz =
  float_of_int nnz /. Machine.cycles_to_ms r.rp_machine r.rp_cycles

(** GFLOP/s at the simulated frequency (for the roofline of Fig. 12). *)
let gflops r =
  float_of_int r.rp_flops
  /. (Machine.cycles_to_ms r.rp_machine r.rp_cycles *. 1e6)

(** Arithmetic intensity (flops per DRAM byte moved). *)
let arithmetic_intensity r =
  float_of_int r.rp_flops
  /. float_of_int
       (max 1 (r.rp_mem.Hierarchy.st_dram_lines * r.rp_machine.Machine.line_bytes))

(** Stable accessors over {!report} plus the named-counter registry.
    Consumers should read reports through these rather than record fields:
    the functions are the compatibility surface, the record layout is not.
    The counter-name catalogue is documented in DESIGN.md §3c. *)
module Report = struct
  type t = report

  let machine r = r.rp_machine
  let threads r = r.rp_threads
  let cycles r = r.rp_cycles
  let instructions r = r.rp_instructions
  let flops r = r.rp_flops
  let loads r = r.rp_loads
  let stores r = r.rp_stores
  let prefetch_instrs r = r.rp_prefetch_instrs
  let mem r = r.rp_mem
  let op_misses r = r.rp_op_misses

  let demand_loads r = r.rp_mem.Hierarchy.st_demand_loads
  let demand_stores r = r.rp_mem.Hierarchy.st_demand_stores
  let l2_misses r = r.rp_mem.Hierarchy.st_l2_misses
  let sw r = List.assoc "sw" r.rp_mem.Hierarchy.st_pf
  let sw_issued r = (sw r).Hierarchy.p_issued
  let sw_dropped r = (sw r).Hierarchy.p_drop_mshr
  let sw_useful r = (sw r).Hierarchy.p_useful

  (** [registry r] is every counter of the report under its stable dotted
      name (the DESIGN.md §3c catalogue): [core.*] for the pipeline,
      [mem.*] for retired memory instructions, [l1./l2./l3./dram.*] for
      the hierarchy, [pf.<slug>.*] for the per-prefetcher lifecycle
      breakdown, and [op.<buf>@<loop>.*] for per-load-site miss
      attribution. *)
  let registry r : Asap_obs.Registry.t =
    let reg = Asap_obs.Registry.create () in
    let set = Asap_obs.Registry.set reg in
    set "core.threads" r.rp_threads;
    set "core.cycles" r.rp_cycles;
    set "core.instructions" r.rp_instructions;
    set "core.flops" r.rp_flops;
    set "mem.loads" r.rp_loads;
    set "mem.stores" r.rp_stores;
    set "mem.prefetches" r.rp_prefetch_instrs;
    let m = r.rp_mem in
    set "mem.demand.loads" m.Hierarchy.st_demand_loads;
    set "mem.demand.stores" m.Hierarchy.st_demand_stores;
    set "l1.miss.demand" m.Hierarchy.st_l1_misses;
    set "l2.miss.demand" m.Hierarchy.st_l2_misses;
    set "l3.miss.demand" m.Hierarchy.st_l3_misses;
    set "dram.lines" m.Hierarchy.st_dram_lines;
    List.iter
      (fun (slug, (p : Hierarchy.pf_stat)) ->
        let pf field v = set ("pf." ^ slug ^ "." ^ field) v in
        pf "issued" p.Hierarchy.p_issued;
        pf "useful" p.Hierarchy.p_useful;
        pf "late" p.Hierarchy.p_late;
        pf "drop.no_mshr" p.Hierarchy.p_drop_mshr;
        pf "drop.present" p.Hierarchy.p_drop_present;
        pf "evicted" p.Hierarchy.p_evicted)
      m.Hierarchy.st_pf;
    (* Load sites sharing a buffer and loop nest merge into one counter
       (several pcs can name the same source site across variants). *)
    List.iter
      (fun om ->
        let op field v =
          Asap_obs.Registry.add reg
            ("op." ^ om.om_buf ^ "@" ^ om.om_loop ^ "." ^ field) v
        in
        op "l1_miss" om.om_l1_miss;
        op "l2_miss" om.om_l2_miss)
      r.rp_op_misses;
    reg

  (** [to_assoc r] is the canonical export: counters sorted by name. *)
  let to_assoc r = Asap_obs.Registry.to_assoc (registry r)

  (** [pp ppf r] prints the registry, one [name value] line per counter. *)
  let pp ppf r = Asap_obs.Registry.pp ppf (registry r)
end

let summary r =
  Printf.sprintf
    "cycles %d | instr %d | loads %d | stores %d | sw-pf %d (drop %d, useful %d) | L2 miss %d | MPKI %.2f"
    (Report.cycles r) (Report.instructions r) (Report.loads r)
    (Report.stores r) (Report.sw_issued r) (Report.sw_dropped r)
    (Report.sw_useful r) (Report.l2_misses r) (l2_mpki r)
