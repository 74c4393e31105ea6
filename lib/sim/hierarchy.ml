(* The full memory system: per-core L1s, per-cluster L2s + MSHR pools,
   a shared inclusive L3, one DRAM channel, and the Table-2 hardware
   prefetchers observing the demand stream at their levels.

   Fills install tags immediately and park the completion time in the
   cluster's MSHR pool, so later accesses to an in-flight line wait for the
   fill instead of re-requesting it. Demand misses on a full pool stall
   until the earliest completion; hardware and software prefetches are
   dropped instead. *)

module Hp = Hw_prefetcher
module Sink = Asap_obs.Sink

let sw_prov = Hp.n_ids           (* provenance id of software prefetches *)
let n_prov = Hp.n_ids + 1

(* Stable dotted-counter-name component per provenance id. *)
let slug_of_prov i = if i = sw_prov then "sw" else Hp.slug_of_id i

(* Sink levels are plain ints (1 = L1 .. 4 = DRAM, 0 = MSHR merge). *)
let level_int = function Hp.L1 -> 1 | Hp.L2 -> 2 | Hp.L3 -> 3

type cluster = {
  l2 : Cache.t;
  mshr : Mshr.t;
  l2_pfs : Hp.t list;
}

type t = {
  cfg : Machine.t;
  line_shift : int;              (* log2 of the line size, from Machine *)
  l1s : Cache.t array;           (* per core *)
  l1_pfs : Hp.t list array;      (* per core *)
  clusters : cluster array;
  cluster_of_core : cluster array;
    (* per-core alias into [clusters]: the hot path resolves a core's
       cluster with one load instead of an integer division per access *)
  l3 : Cache.t;
  l3_pfs : Hp.t list;
  dram : Dram.t;
  (* Observability: hierarchy code tests [obs_on] (a plain bool) before
     building any event, so a null sink costs one branch per access. *)
  mutable obs : Sink.t;
  mutable obs_on : bool;
  (* Scratch buffers the prefetchers write their requested lines into —
     the per-access observation path allocates nothing. [pf_out] serves
     the demand-level firing; [pf_out_nested] serves the L2 observation
     an L1-level fill triggers inside [fetch_line] while [pf_out] is
     still being drained (nesting stops there: L2/L3-level fills observe
     nothing further). *)
  pf_out : int array;
  pf_out_nested : int array;
  (* Statistics *)
  pf_issued : int array;         (* per provenance id *)
  pf_useful : int array;
  pf_drop_mshr : int array;      (* dropped: no MSHR free *)
  pf_drop_present : int array;   (* dropped: line present or in flight *)
  pf_late : int array;           (* demand arrived while fill in flight *)
  pf_evicted : int array;        (* evicted before any demand use *)
  mutable demand_loads : int;
  mutable demand_stores : int;
  mutable l1_demand_misses : int;
  mutable l2_demand_misses : int;  (* went past L2: L3 hit or DRAM *)
  mutable l3_demand_misses : int;
  (* Per-PC load-miss attribution (pc = Ir vid of the load; stores and
     prefetcher-observation pcs carry tag bits >= 0x10000 and are
     excluded). Arrays grow on demand — vids are small and dense. *)
  mutable pc_l1_miss : int array;
  mutable pc_l2_miss : int array;
}

let alloc (cfg : Machine.t) : t =
  let line = cfg.Machine.line_bytes in
  let line_shift = Cache.line_shift ~line_bytes:line in
  let mk_l1 _ =
    Cache.create ~size_bytes:(cfg.Machine.l1_kb * 1024)
      ~ways:cfg.Machine.l1_ways ~line_bytes:line
  in
  let mk_l1_pfs _ =
    List.concat
      [ (if cfg.Machine.hw.Machine.l1_nlp then [ Hp.l1_nlp () ] else []);
        (if cfg.Machine.hw.Machine.l1_ipp then [ Hp.l1_ipp ~line_shift () ]
         else []) ]
  in
  let mk_cluster _ =
    { l2 =
        Cache.create ~size_bytes:(cfg.Machine.l2_kb * 1024)
          ~ways:cfg.Machine.l2_ways ~line_bytes:line;
      mshr = Mshr.create cfg.Machine.mshrs;
      l2_pfs =
        List.concat
          [ (if cfg.Machine.hw.Machine.l2_nlp then [ Hp.l2_nlp () ] else []);
            (if cfg.Machine.hw.Machine.mlc_streamer then
               [ Hp.mlc_streamer ~line_shift () ]
             else []);
            (if cfg.Machine.hw.Machine.l2_amp then [ Hp.l2_amp () ] else []) ] }
  in
  let clusters = Array.init (Machine.clusters cfg) mk_cluster in
  { cfg;
    line_shift;
    l1s = Array.init cfg.Machine.cores mk_l1;
    l1_pfs = Array.init cfg.Machine.cores mk_l1_pfs;
    clusters;
    cluster_of_core =
      Array.init cfg.Machine.cores (fun c ->
          clusters.(c / cfg.Machine.cores_per_cluster));
    l3 =
      Cache.create ~size_bytes:(cfg.Machine.l3_kb * 1024)
        ~ways:cfg.Machine.l3_ways ~line_bytes:line;
    l3_pfs =
      (if cfg.Machine.hw.Machine.llc_streamer then
         [ Hp.llc_streamer ~line_shift () ]
       else []);
    dram = Dram.create ~latency:cfg.Machine.dram_latency
        ~gap:cfg.Machine.dram_gap;
    obs = Sink.null; obs_on = false;
    pf_out = Array.make Hp.max_requests 0;
    pf_out_nested = Array.make Hp.max_requests 0;
    pf_issued = Array.make n_prov 0;
    pf_useful = Array.make n_prov 0;
    pf_drop_mshr = Array.make n_prov 0;
    pf_drop_present = Array.make n_prov 0;
    pf_late = Array.make n_prov 0;
    pf_evicted = Array.make n_prov 0;
    demand_loads = 0; demand_stores = 0;
    l1_demand_misses = 0; l2_demand_misses = 0; l3_demand_misses = 0;
    pc_l1_miss = Array.make 64 0; pc_l2_miss = Array.make 64 0 }

(* Every mutable part of [t] back to the state [alloc] returns, with
   [obs] as the sink. *)
let clear t ~obs =
  Array.iter Cache.clear t.l1s;
  Array.iter (List.iter Hp.clear) t.l1_pfs;
  Array.iter
    (fun cl ->
      Cache.clear cl.l2;
      Mshr.clear cl.mshr;
      List.iter Hp.clear cl.l2_pfs)
    t.clusters;
  Cache.clear t.l3;
  List.iter Hp.clear t.l3_pfs;
  Dram.reset t.dram;
  t.obs <- obs;
  t.obs_on <- obs.Sink.enabled;
  List.iter
    (fun a -> Array.fill a 0 (Array.length a) 0)
    [ t.pf_issued; t.pf_useful; t.pf_drop_mshr; t.pf_drop_present;
      t.pf_late; t.pf_evicted; t.pc_l1_miss; t.pc_l2_miss ];
  t.demand_loads <- 0;
  t.demand_stores <- 0;
  t.l1_demand_misses <- 0;
  t.l2_demand_misses <- 0;
  t.l3_demand_misses <- 0

(* Hierarchies released after a run, most recent first, at most
   [max_spares] per domain. [create] clears one built for an equal
   machine instead of allocating again: the scaled machine's tag arrays
   are about 210 KiB, and where every op is a fresh small run
   (small-kernels, serve builds) allocating them drove most of the major
   GC work. A domain's spares are its own, so no two runs share one. *)
let spares : t list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])
let max_spares = 4

let create ?(obs = Sink.null) (cfg : Machine.t) : t =
  let rec take seen = function
    | [] -> alloc cfg
    | t :: rest when t.cfg = cfg ->
      Domain.DLS.set spares (List.rev_append seen rest);
      t
    | t :: rest -> take (t :: seen) rest
  in
  let t = take [] (Domain.DLS.get spares) in
  clear t ~obs;
  t

let release t =
  (* Drop the sink now: it may hold a whole trace. *)
  t.obs <- Sink.null;
  t.obs_on <- false;
  Domain.DLS.set spares
    (t :: List.filteri (fun i _ -> i < max_spares - 1) (Domain.DLS.get spares))

let cluster_of t core = t.cluster_of_core.(core)

let note_useful t prov = if prov >= 0 then t.pf_useful.(prov) <- t.pf_useful.(prov) + 1

(* A prefetched line evicted before its first demand use: [lookup] clears
   provenance on first use, so a surviving prefetch provenance on the
   victim means the prefetch never paid off. *)
let note_evict t vp = if vp >= 0 then t.pf_evicted.(vp) <- t.pf_evicted.(vp) + 1

(* Demand arrived while the prefetched fill was still in flight: the
   prefetch was issued but not early enough (it still hid part of the
   latency, but the core stalled). Attributed at most once per fill via
   [Mshr.take_prov]. *)
let note_late t prov = if prov >= 0 then t.pf_late.(prov) <- t.pf_late.(prov) + 1

(* Per-PC load-miss attribution; arrays grow on demand. *)
let bump_pc t which pc =
  let a = if which = 1 then t.pc_l1_miss else t.pc_l2_miss in
  if pc >= Array.length a then begin
    let a' = Array.make (max (2 * Array.length a) (pc + 1)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    if which = 1 then t.pc_l1_miss <- a' else t.pc_l2_miss <- a';
    a'.(pc) <- 1
  end
  else a.(pc) <- a.(pc) + 1

(* Loads carry their Ir vid as pc; stores and prefetcher observations are
   tagged with bits >= 0x10000 (see Interp/Compile) and are excluded. *)
let attributable pc = pc >= 0 && pc < 0x10000

(* What a fill knows of [line] at one cache level: absent (a search
   found no line and nothing since could have installed it), found at a
   [Cache.find] index that is still valid, or [unknown]. *)
let absent = -1
let unknown = -2

(* Installs [line] in [c] with [prov] as [known] allows: [insert_absent]
   without a search, [touch] at the found index (nothing is evicted, so
   nothing to count), or a full [insert_evict]. Counts the eviction of a
   still-tagged (never-used) prefetched victim. *)
let place t c line ~prov known =
  if known >= 0 then Cache.touch c line known
  else if known = absent then note_evict t (Cache.insert_absent c line ~prov)
  else note_evict t (Cache.insert_evict c line ~prov)

(* Installs [line] at [level] and at every level outward of it (the L3 is
   inclusive), tagged with [prov] only at [level] so that a prefetched
   line counts as useful at most once. *)
let install t ~core ~prov ~level line ~known2 ~known3 =
  let cl = cluster_of t core and demand = Cache.demand_prov in
  match level with
  | Hp.L1 ->
    place t t.l1s.(core) line ~prov absent;
    place t cl.l2 line ~prov:demand known2;
    place t t.l3 line ~prov:demand known3
  | Hp.L2 ->
    place t cl.l2 line ~prov known2;
    place t t.l3 line ~prov:demand known3
  | Hp.L3 -> place t t.l3 line ~prov known3

(* Bring [line] in from wherever it is, without waiting (prefetch / store
   fill). Returns true if a request was actually issued somewhere.

   An L1-level fill that misses L1 traverses the L2, so the L2-level
   prefetchers observe it exactly as real hardware's do — without this, an
   enabled L1 NLP would hide every stream from the MLC streamer.

   Each level is searched once, and the install reuses what the search
   learnt. Only the nested L2 observation runs between a search and the
   install; its fills can evict [line] from L2 or L3 but never install it
   (no prefetcher requests the line it observes), so absence survives it
   and a found L2 index does not. *)
let rec fetch_line t ~core ~prov ~level ~at line =
  let cl = cluster_of t core in
  Mshr.expire cl.mshr ~now:at;
  let present =
    match level with
    | Hp.L1 -> Cache.probe t.l1s.(core) line
    | Hp.L2 -> Cache.probe cl.l2 line
    | Hp.L3 -> Cache.probe t.l3 line
  in
  if present || Mshr.find cl.mshr line >= 0 then begin
    if prov >= 0 then begin
      t.pf_drop_present.(prov) <- t.pf_drop_present.(prov) + 1;
      if t.obs_on then
        t.obs.Sink.emit
          (Sink.Drop { core; prov; line; at; level = level_int level;
                       reason = Sink.Present })
    end;
    false
  end
  else begin
    (* An L2 fill has just seen L2 without the line. *)
    let i2 =
      match level with Hp.L2 -> absent | Hp.L1 | Hp.L3 -> Cache.find cl.l2 line
    in
    let nested = level = Hp.L1 && cl.l2_pfs <> [] in
    if nested then
      (* The nested scratch buffer: [pf_out] may still be mid-drain in
         the [issue_requests] walk that called us. The L2 units only
         request L2-level fills, so this never nests further. *)
      fire_pfs t ~core ~at ~buf:t.pf_out_nested cl.l2_pfs
        ~pc:(prov lor 0x40000) ~addr:(line lsl t.line_shift) ~line
        ~hit:(i2 >= 0);
    (* L3 is searched only when L2 missed; an L3 fill has just seen L3
       without the line. *)
    let i3 =
      match level with
      | Hp.L3 -> absent
      | Hp.L1 | Hp.L2 -> if i2 >= 0 then unknown else Cache.find t.l3 line
    in
    if i2 >= 0 || i3 >= 0 then begin
      (* Move inward from L2/L3: cheap, no MSHR needed in this model. *)
      install t ~core ~prov ~level line
        ~known2:(if nested && i2 >= 0 then unknown else i2) ~known3:i3;
      true
    end
    else if Mshr.full cl.mshr then begin
      if prov >= 0 then begin
        t.pf_drop_mshr.(prov) <- t.pf_drop_mshr.(prov) + 1;
        if t.obs_on then
          t.obs.Sink.emit
            (Sink.Drop { core; prov; line; at; level = level_int level;
                         reason = Sink.Mshr_full })
      end;
      false
    end
    else begin
      let done_at = Dram.fill t.dram ~at in
      Mshr.add ~prov cl.mshr line done_at;
      install t ~core ~prov ~level line ~known2:absent ~known3:absent;
      true
    end
  end

(* Push one unit's fill requests (lines [buf.(i .. n-1)]) through the
   shared paths; fills go to the unit's own level and are attributed to
   its id. A plain index walk — this runs on every demand access. *)
and issue_requests t ~core ~at ~src ~level ~buf i n =
  if i < n then begin
    let line = buf.(i) in
    if fetch_line t ~core ~prov:src ~level ~at line then begin
      t.pf_issued.(src) <- t.pf_issued.(src) + 1;
      if t.obs_on then
        t.obs.Sink.emit
          (Sink.Hw_prefetch
             { core; src; line; at; level = level_int level })
    end;
    issue_requests t ~core ~at ~src ~level ~buf (i + 1) n
  end

(* Each unit's burst is drained before the next unit observes, so [buf]
   is reusable across the walk (same order as the old per-unit lists). *)
and fire_pfs t ~core ~at ~buf pfs ~pc ~addr ~line ~hit =
  match pfs with
  | [] -> ()
  | (pf : Hp.t) :: rest ->
    let n = Hp.observe pf ~pc ~addr ~line ~hit ~out:buf in
    if n > 0 then
      issue_requests t ~core ~at ~src:pf.Hp.pf_id ~level:pf.Hp.pf_level
        ~buf 0 n;
    fire_pfs t ~core ~at ~buf rest ~pc ~addr ~line ~hit

(* [fire_level] walks the prefetchers of a level over one demand access.
   Allocation-free: the observation is passed unpacked and requests land
   in the demand scratch buffer. *)
let fire_level t ~core ~at pfs ~pc ~addr ~line hit =
  if pfs <> [] then
    fire_pfs t ~core ~at ~buf:t.pf_out pfs ~pc ~addr ~line ~hit

(* Trace emission for a serviced demand load, factored out so [load]'s
   return points stay expressions. *)
let emit_load t ~core ~pc ~addr ~at ~ready ~level =
  t.obs.Sink.emit (Sink.Load { core; pc; addr; at; ready; level })

(** [load t ~core ~pc ~addr ~at] performs a demand load issued at cycle
    [at]; returns the cycle the data is ready. *)
let load t ~core ~pc ~addr ~at =
  t.demand_loads <- t.demand_loads + 1;
  let line = addr asr t.line_shift in
  let l1 = t.l1s.(core) in
  let cl = cluster_of t core in
  Mshr.expire cl.mshr ~now:at;
  let lat1 = at + t.cfg.Machine.lat_l1 in
  let p1 = Cache.lookup l1 line in
  if p1 <> Cache.no_hit then begin
    note_useful t p1;
    fire_level t ~core ~at t.l1_pfs.(core) ~pc ~addr ~line true;
    (* The tag may be present while the fill is still in flight; find
       returns -1 when nothing is in flight, so max yields lat1 then. *)
    let d = Mshr.find cl.mshr line in
    if d > lat1 then begin
      (* The prefetched fill is still in flight: issued, but too late to
         fully hide the latency. *)
      let mp = Mshr.take_prov cl.mshr line in
      note_late t (if p1 >= 0 then p1 else mp);
      if t.obs_on then emit_load t ~core ~pc ~addr ~at ~ready:d ~level:0;
      d
    end
    else begin
      if t.obs_on then emit_load t ~core ~pc ~addr ~at ~ready:lat1 ~level:1;
      lat1
    end
  end
  else begin
    t.l1_demand_misses <- t.l1_demand_misses + 1;
    if attributable pc then bump_pc t 1 pc;
    fire_level t ~core ~at t.l1_pfs.(core) ~pc ~addr ~line false;
    (* Every install below uses [insert_absent]: the level in question
       just missed in [lookup], and no prefetcher ever requests the
       observed line itself, so absence still holds — this skips a
       redundant tag re-scan per level on the whole demand-miss path. *)
    let d = Mshr.find cl.mshr line in
    if d >= 0 then begin
      note_evict t (Cache.insert_absent l1 line ~prov:Cache.demand_prov);
      if d > lat1 then begin
        note_late t (Mshr.take_prov cl.mshr line);
        if t.obs_on then emit_load t ~core ~pc ~addr ~at ~ready:d ~level:0;
        d
      end
      else begin
        if t.obs_on then emit_load t ~core ~pc ~addr ~at ~ready:lat1 ~level:0;
        lat1
      end
    end
    else begin
      let p2 = Cache.lookup cl.l2 line in
      if p2 <> Cache.no_hit then begin
        note_useful t p2;
        fire_level t ~core ~at cl.l2_pfs ~pc ~addr ~line true;
        note_evict t (Cache.insert_absent l1 line ~prov:Cache.demand_prov);
        let ready = at + t.cfg.Machine.lat_l2 in
        if t.obs_on then emit_load t ~core ~pc ~addr ~at ~ready ~level:2;
        ready
      end
      else begin
        fire_level t ~core ~at cl.l2_pfs ~pc ~addr ~line false;
        t.l2_demand_misses <- t.l2_demand_misses + 1;
        if attributable pc then bump_pc t 2 pc;
        let p3 = Cache.lookup t.l3 line in
        if p3 <> Cache.no_hit then begin
          note_useful t p3;
          fire_level t ~core ~at t.l3_pfs ~pc ~addr ~line true;
          note_evict t (Cache.insert_absent l1 line ~prov:Cache.demand_prov);
          note_evict t
            (Cache.insert_absent cl.l2 line ~prov:Cache.demand_prov);
          (* No L3 install: the hit [lookup] just refreshed its LRU. *)
          let ready = at + t.cfg.Machine.lat_l3 in
          if t.obs_on then emit_load t ~core ~pc ~addr ~at ~ready ~level:3;
          ready
        end
        else begin
          fire_level t ~core ~at t.l3_pfs ~pc ~addr ~line false;
          t.l3_demand_misses <- t.l3_demand_misses + 1;
          (* Wait for an MSHR if the pool is exhausted. *)
          let at' =
            if Mshr.full cl.mshr then begin
              (* earliest is -1 only on an empty pool, impossible here. *)
              let earliest = Mshr.earliest cl.mshr in
              let now = if at > earliest then at else earliest in
              Mshr.expire cl.mshr ~now;
              now
            end
            else at
          in
          let done_at = Dram.fill t.dram ~at:at' in
          Mshr.add ~prov:Cache.demand_prov cl.mshr line done_at;
          note_evict t (Cache.insert_absent l1 line ~prov:Cache.demand_prov);
          note_evict t
            (Cache.insert_absent cl.l2 line ~prov:Cache.demand_prov);
          note_evict t (Cache.insert_absent t.l3 line ~prov:Cache.demand_prov);
          if t.obs_on then
            emit_load t ~core ~pc ~addr ~at ~ready:done_at ~level:4;
          done_at
        end
      end
    end
  end

(** [store t ~core ~pc ~addr ~at] performs a write-allocate store; it never
    stalls the core (completion is hidden by the store buffer), but misses
    consume fill bandwidth. *)
let store t ~core ~pc ~addr ~at =
  t.demand_stores <- t.demand_stores + 1;
  let line = addr asr t.line_shift in
  let l1 = t.l1s.(core) in
  let p = Cache.lookup l1 line in
  (if p <> Cache.no_hit then note_useful t p
   else begin
     t.l1_demand_misses <- t.l1_demand_misses + 1;
     let cl = cluster_of t core in
     if not (Cache.probe cl.l2 line) && not (Cache.probe t.l3 line) then begin
       (* Absent everywhere: the write-allocate fill comes from DRAM, so it
          misses both L2 and L3. *)
       t.l2_demand_misses <- t.l2_demand_misses + 1;
       t.l3_demand_misses <- t.l3_demand_misses + 1
     end;
     let (_ : bool) =
       fetch_line t ~core ~prov:Cache.demand_prov ~level:Hp.L1 ~at line
     in
     note_evict t (Cache.insert_evict l1 line ~prov:Cache.demand_prov)
   end);
  if t.obs_on then t.obs.Sink.emit (Sink.Store { core; pc; addr; at })

(** [prefetch t ~core ~addr ~locality ~at] performs a software prefetch.
    Locality maps to the fill level: 3-2 into L1, 1 into L2, 0 into L3. *)
let prefetch t ~core ~addr ~locality ~at =
  let line = addr asr t.line_shift in
  let level =
    if locality >= 2 then Hp.L1 else if locality = 1 then Hp.L2 else Hp.L3
  in
  let issued = fetch_line t ~core ~prov:sw_prov ~level ~at line in
  if issued then t.pf_issued.(sw_prov) <- t.pf_issued.(sw_prov) + 1;
  if t.obs_on then
    t.obs.Sink.emit (Sink.Sw_prefetch { core; addr; locality; at; issued })

(** Per-prefetcher lifecycle breakdown (one per provenance id, software
    included). Issued counts fills actually requested; the drop counters
    classify requests that never became fills; late and evicted classify
    issued fills that missed their window. *)
type pf_stat = {
  p_issued : int;
  p_useful : int;
  p_late : int;            (** demand arrived while the fill was in flight *)
  p_drop_mshr : int;       (** dropped: no MSHR free *)
  p_drop_present : int;    (** dropped: line already present or in flight *)
  p_evicted : int;         (** evicted before any demand use *)
}

(** Statistics snapshot for the PMU-style report (paper §4.4). *)
type stats = {
  st_demand_loads : int;
  st_demand_stores : int;
  st_l1_misses : int;
  st_l2_misses : int;
  st_l3_misses : int;
  st_dram_lines : int;
  st_pf : (string * pf_stat) list;
    (** keyed by counter-name slug ("sw", "l1_ipp", ...), provenance order *)
  st_pc_l1_miss : (int * int) list;
    (** load-miss counts by Ir vid (pc ascending, zero counts omitted) *)
  st_pc_l2_miss : (int * int) list;
}

let pc_assoc (a : int array) =
  let acc = ref [] in
  for pc = Array.length a - 1 downto 0 do
    if a.(pc) > 0 then acc := (pc, a.(pc)) :: !acc
  done;
  !acc

let stats t =
  { st_demand_loads = t.demand_loads;
    st_demand_stores = t.demand_stores;
    st_l1_misses = t.l1_demand_misses;
    st_l2_misses = t.l2_demand_misses;
    st_l3_misses = t.l3_demand_misses;
    st_dram_lines = t.dram.Dram.lines;
    st_pf =
      List.init n_prov (fun i ->
          ( slug_of_prov i,
            { p_issued = t.pf_issued.(i);
              p_useful = t.pf_useful.(i);
              p_late = t.pf_late.(i);
              p_drop_mshr = t.pf_drop_mshr.(i);
              p_drop_present = t.pf_drop_present.(i);
              p_evicted = t.pf_evicted.(i) } ));
    st_pc_l1_miss = pc_assoc t.pc_l1_miss;
    st_pc_l2_miss = pc_assoc t.pc_l2_miss }
