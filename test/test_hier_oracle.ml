(* Reference model of the memory hierarchy, and the differential that
   holds [Hierarchy] to it.

   [Ref] is the hierarchy written plainly: each cache set is a list of
   (line, provenance) pairs in LRU order (most recent first), the MSHR
   pool a list in insertion order, the six Table-2 prefetchers small
   records of mutable fields returning their requests as lists, and the
   DRAM channel the same latency-plus-gap queue. It has no scratch
   buffers, memos, masks or skipped re-scans: whatever [Hierarchy] does
   to go fast must be invisible against it.

   The differential drives both with the same random load/store/prefetch
   streams (addresses clustered so that sets conflict at every level,
   sequential and strided runs that train the prefetchers, [at] not
   monotone, bursts of misses that keep lines in flight and fill the
   MSHR pool) on the three machine presets and an all-on setting, at 1,
   4 and 8 cores (one and two L2 clusters) and on 128-byte lines, and
   requires every ready cycle, every observability event and every
   [Hierarchy.stats] field to be equal, also on a hierarchy that
   [Hierarchy.create] reuses after [Hierarchy.release]. It does the same
   with the streams real kernel runs make, recorded by [Stream]. *)

module Machine = Asap_sim.Machine
module Hierarchy = Asap_sim.Hierarchy
module Hp = Asap_sim.Hw_prefetcher
module Sink = Asap_obs.Sink
module Stream = Asap_sim.Stream
module Encoding = Asap_tensor.Encoding
module Driver = Asap_core.Driver
module Pipeline = Asap_core.Pipeline

module Ref = struct
  let demand = -1

  (* --- Caches: one list per set, most recently used first ------------ *)

  type cache = { sets : (int * int) list array; ways : int }

  let cache ~size_bytes ~ways ~line_bytes =
    { sets = Array.make (size_bytes / line_bytes / ways) []; ways }

  let set c line = line land (Array.length c.sets - 1)

  let probe c line = List.mem_assoc line c.sets.(set c line)

  (* The line's provenance on a hit (cleared to demand: a prefetched
     line counts as useful once), or [None] on a miss. *)
  let lookup c line =
    let s = set c line in
    match List.assoc_opt line c.sets.(s) with
    | None -> None
    | Some p ->
      c.sets.(s) <- (line, demand) :: List.remove_assoc line c.sets.(s);
      Some p

  (* Install [line] as most recent; if present, only its recency
     changes. Returns the evicted line's provenance (demand when nothing
     was evicted). *)
  let insert c line prov =
    let s = set c line in
    let l = c.sets.(s) in
    match List.assoc_opt line l with
    | Some p -> c.sets.(s) <- (line, p) :: List.remove_assoc line l; demand
    | None when List.length l < c.ways ->
      c.sets.(s) <- (line, prov) :: l;
      demand
    | None ->
      let keep = List.filteri (fun i _ -> i < c.ways - 1) l in
      c.sets.(s) <- (line, prov) :: keep;
      snd (List.nth l (c.ways - 1))

  (* --- MSHR pool: in-flight fills in insertion order ----------------- *)

  type fill = { f_line : int; f_done : int; mutable f_prov : int }
  type mshr = { mutable fills : fill list; cap : int }

  let expire m now = m.fills <- List.filter (fun f -> f.f_done > now) m.fills

  let in_flight m line = List.find_opt (fun f -> f.f_line = line) m.fills

  let find m line =
    match in_flight m line with Some f -> f.f_done | None -> -1

  let full m = List.length m.fills >= m.cap

  let earliest m =
    List.fold_left (fun acc f -> min acc f.f_done) max_int m.fills

  let take_prov m line =
    match in_flight m line with
    | Some f -> let p = f.f_prov in f.f_prov <- demand; p
    | None -> demand

  let add m line done_at prov =
    m.fills <- m.fills @ [ { f_line = line; f_done = done_at; f_prov = prov } ]

  (* --- DRAM: fixed latency, one line per [gap] cycles ---------------- *)

  type dram = { latency : int; gap : int; mutable free : int;
                mutable lines : int }

  let dram_fill d at =
    let start = max at d.free in
    d.free <- start + d.gap;
    d.lines <- d.lines + 1;
    start + d.latency

  (* --- The six prefetchers (Table 2) --------------------------------- *)

  type stream = { mutable s_pc : int; mutable s_last : int;
                  mutable s_stride : int; mutable s_conf : int;
                  mutable s_used : int }

  type page = { mutable p_page : int; mutable p_last : int;
                mutable p_conf : int; mutable p_used : int }

  type kind =
    | Nlp
    | Ipp of stream array
    | Streamer of { table : page array; mutable clock : int; degree : int }
    | Amp of { mutable last : int; mutable delta : int }

  type pf = { id : int; level : int; kind : kind }

  (* Index of the first element of [a] minimising [key]. *)
  let argmin key a =
    let best = ref 0 in
    Array.iteri (fun i x -> if key x < key a.(!best) then best := i) a;
    !best

  let first_index p a =
    let r = ref (-1) in
    Array.iteri (fun i x -> if !r < 0 && p x then r := i) a;
    !r

  (* The lines [pf] asks for after seeing one access at its level; a
     page is 4 KiB. *)
  let observe ~line_bytes pf ~pc ~addr ~line ~hit =
    let page_of l = l * line_bytes / 4096 in
    match pf.kind with
    | Nlp -> if hit then [] else [ line + 1 ]
    | Ipp table ->
      let i = first_index (fun s -> s.s_pc = pc) table in
      if i < 0 then begin
        let v = table.(argmin (fun s -> s.s_conf) table) in
        if v.s_conf = 0 then begin
          v.s_pc <- pc; v.s_last <- addr; v.s_stride <- 0; v.s_conf <- 1;
          v.s_used <- 0
        end
        else begin
          v.s_used <- v.s_used + 1;
          if v.s_used mod 8 = 0 then v.s_conf <- v.s_conf - 1
        end;
        []
      end
      else begin
        let s = table.(i) in
        s.s_used <- 0;
        let d = addr - s.s_last in
        if d = s.s_stride && d <> 0 then s.s_conf <- min 4 (s.s_conf + 1)
        else begin s.s_stride <- d; s.s_conf <- 1 end;
        s.s_last <- addr;
        let target = addr + (s.s_stride * 16) in
        if s.s_conf >= 2 && target >= 0 && target / line_bytes <> line then
          [ target / line_bytes ]
        else []
      end
    | Streamer st ->
      st.clock <- st.clock + 1;
      let page = page_of line in
      let i = first_index (fun e -> e.p_page = page) st.table in
      if i < 0 then begin
        let v = st.table.(argmin (fun e -> e.p_used) st.table) in
        v.p_page <- page; v.p_last <- line; v.p_conf <- 0;
        v.p_used <- st.clock;
        []
      end
      else begin
        let e = st.table.(i) in
        e.p_used <- st.clock;
        let delta = line - e.p_last in
        if delta > 0 && delta <= 4 then begin
          e.p_conf <- min 4 (e.p_conf + 1); e.p_last <- line
        end
        else if abs delta > 4 then begin e.p_conf <- 0; e.p_last <- line end;
        if e.p_conf >= 1 && delta > 0 then
          List.init st.degree (fun k -> e.p_last + k + 1)
          |> List.filter (fun l -> page_of l = page)
        else []
      end
    | Amp a ->
      let d = line - a.last in
      let fire = a.last >= 0 && d = a.delta && d <> 0 in
      a.delta <- d;
      a.last <- line;
      if fire then
        List.filter (fun l -> l >= 0) [ line + d; line + (2 * d) ]
      else []

  let ipp () =
    Ipp (Array.init 2 (fun _ ->
             { s_pc = -1; s_last = 0; s_stride = 0; s_conf = 0; s_used = 0 }))

  let streamer () =
    Streamer
      { table =
          Array.init 16 (fun _ ->
              { p_page = -1; p_last = -1; p_conf = 0; p_used = 0 });
        clock = 0; degree = 4 }

  (* --- The hierarchy -------------------------------------------------- *)

  let sw = Hp.n_ids
  let n_prov = Hp.n_ids + 1

  type cluster = { l2 : cache; mshr : mshr; l2_pfs : pf list }

  type t = {
    m : Machine.t;
    shift : int;
    l1s : cache array;
    l1_pfs : pf list array;
    clusters : cluster array;
    l3 : cache;
    l3_pfs : pf list;
    dram : dram;
    emit : Sink.ev -> unit;
    issued : int array; useful : int array; late : int array;
    drop_mshr : int array; drop_present : int array; evicted : int array;
    mutable loads : int; mutable stores : int;
    mutable l1_miss : int; mutable l2_miss : int; mutable l3_miss : int;
    pc_l1 : (int, int) Hashtbl.t;
    pc_l2 : (int, int) Hashtbl.t;
  }

  let create ~emit (m : Machine.t) =
    let hw = m.Machine.hw and line_bytes = m.Machine.line_bytes in
    let on b id level kind =
      if b then [ { id; level; kind = kind () } ] else []
    in
    let shift = ref 0 in
    while 1 lsl !shift < line_bytes do incr shift done;
    let counts () = Array.make n_prov 0 in
    { m; shift = !shift;
      l1s =
        Array.init m.Machine.cores (fun _ ->
            cache ~size_bytes:(m.Machine.l1_kb * 1024) ~ways:m.Machine.l1_ways
              ~line_bytes);
      l1_pfs =
        Array.init m.Machine.cores (fun _ ->
            on hw.Machine.l1_nlp 0 1 (fun () -> Nlp)
            @ on hw.Machine.l1_ipp 1 1 ipp);
      clusters =
        Array.init (Machine.clusters m) (fun _ ->
            { l2 = cache ~size_bytes:(m.Machine.l2_kb * 1024)
                  ~ways:m.Machine.l2_ways ~line_bytes;
              mshr = { fills = []; cap = m.Machine.mshrs };
              l2_pfs =
                on hw.Machine.l2_nlp 2 2 (fun () -> Nlp)
                @ on hw.Machine.mlc_streamer 3 2 streamer
                @ on hw.Machine.l2_amp 4 2 (fun () ->
                    Amp { last = -1; delta = 0 }) });
      l3 = cache ~size_bytes:(m.Machine.l3_kb * 1024) ~ways:m.Machine.l3_ways
          ~line_bytes;
      l3_pfs = on hw.Machine.llc_streamer 5 3 streamer;
      dram = { latency = m.Machine.dram_latency; gap = m.Machine.dram_gap;
               free = 0; lines = 0 };
      emit;
      issued = counts (); useful = counts (); late = counts ();
      drop_mshr = counts (); drop_present = counts (); evicted = counts ();
      loads = 0; stores = 0;
      l1_miss = 0; l2_miss = 0; l3_miss = 0;
      pc_l1 = Hashtbl.create 16; pc_l2 = Hashtbl.create 16 }

  let cluster t core = t.clusters.(core / t.m.Machine.cores_per_cluster)
  let bump a i = if i >= 0 then a.(i) <- a.(i) + 1
  let bump_pc h pc =
    if pc >= 0 && pc < 0x10000 then
      Hashtbl.replace h pc (1 + Option.value ~default:0 (Hashtbl.find_opt h pc))

  let evict t c line prov = bump t.evicted (insert c line prov)

  (* [line] into the cache at [level] with [prov], and into every level
     outward of it as a demand line (the L3 is inclusive). *)
  let install t core prov level line =
    let cl = cluster t core in
    if level = 1 then evict t t.l1s.(core) line prov;
    if level <= 2 then evict t cl.l2 line (if level = 2 then prov else demand);
    evict t t.l3 line (if level = 3 then prov else demand)

  let cache_at t core level =
    match level with
    | 1 -> t.l1s.(core)
    | 2 -> (cluster t core).l2
    | _ -> t.l3

  (* A fill that does not stall anyone (a prefetch or a store's
     write-allocate); true if it was issued. An L1-level fill passes the
     L2, whose prefetchers see it. *)
  let rec fetch t core prov level at line =
    let cl = cluster t core in
    expire cl.mshr at;
    if probe (cache_at t core level) line || find cl.mshr line >= 0 then begin
      bump t.drop_present prov;
      if prov >= 0 then
        t.emit (Sink.Drop { core; prov; line; at; level;
                            reason = Sink.Present });
      false
    end
    else begin
      let in_l2 = probe cl.l2 line in
      if level = 1 then
        fire t core at cl.l2_pfs ~pc:(prov lor 0x40000)
          ~addr:(line lsl t.shift) ~line ~hit:in_l2;
      if in_l2 || probe t.l3 line then begin
        install t core prov level line;
        true
      end
      else if full cl.mshr then begin
        bump t.drop_mshr prov;
        if prov >= 0 then
          t.emit (Sink.Drop { core; prov; line; at; level;
                              reason = Sink.Mshr_full });
        false
      end
      else begin
        add cl.mshr line (dram_fill t.dram at) prov;
        install t core prov level line;
        true
      end
    end

  (* Each unit of [pfs] observes the access, then its requests are
     issued, before the next unit observes. *)
  and fire t core at pfs ~pc ~addr ~line ~hit =
    List.iter
      (fun pf ->
        List.iter
          (fun l ->
            if fetch t core pf.id pf.level at l then begin
              bump t.issued pf.id;
              t.emit (Sink.Hw_prefetch { core; src = pf.id; line = l; at;
                                         level = pf.level })
            end)
          (observe ~line_bytes:t.m.Machine.line_bytes pf ~pc ~addr ~line
             ~hit))
      pfs

  let load t ~core ~pc ~addr ~at =
    t.loads <- t.loads + 1;
    let line = addr asr t.shift and cl = cluster t core in
    let m = t.m in
    expire cl.mshr at;
    let lat1 = at + m.Machine.lat_l1 in
    let served ready level =
      t.emit (Sink.Load { core; pc; addr; at; ready; level });
      ready
    in
    let l1 = t.l1s.(core) in
    match lookup l1 line with
    | Some p1 ->
      bump t.useful p1;
      fire t core at t.l1_pfs.(core) ~pc ~addr ~line ~hit:true;
      let d = find cl.mshr line in
      if d > lat1 then begin
        let mp = take_prov cl.mshr line in
        bump t.late (if p1 >= 0 then p1 else mp);
        served d 0
      end
      else served lat1 1
    | None ->
      t.l1_miss <- t.l1_miss + 1;
      bump_pc t.pc_l1 pc;
      fire t core at t.l1_pfs.(core) ~pc ~addr ~line ~hit:false;
      let d = find cl.mshr line in
      if d >= 0 then begin
        evict t l1 line demand;
        if d > lat1 then begin
          bump t.late (take_prov cl.mshr line);
          served d 0
        end
        else served lat1 0
      end
      else begin
        match lookup cl.l2 line with
        | Some p2 ->
          bump t.useful p2;
          fire t core at cl.l2_pfs ~pc ~addr ~line ~hit:true;
          evict t l1 line demand;
          served (at + m.Machine.lat_l2) 2
        | None ->
          fire t core at cl.l2_pfs ~pc ~addr ~line ~hit:false;
          t.l2_miss <- t.l2_miss + 1;
          bump_pc t.pc_l2 pc;
          (match lookup t.l3 line with
           | Some p3 ->
             bump t.useful p3;
             fire t core at t.l3_pfs ~pc ~addr ~line ~hit:true;
             evict t l1 line demand;
             evict t cl.l2 line demand;
             served (at + m.Machine.lat_l3) 3
           | None ->
             fire t core at t.l3_pfs ~pc ~addr ~line ~hit:false;
             t.l3_miss <- t.l3_miss + 1;
             let at' =
               if full cl.mshr then begin
                 let now = max at (earliest cl.mshr) in
                 expire cl.mshr now;
                 now
               end
               else at
             in
             let done_at = dram_fill t.dram at' in
             add cl.mshr line done_at demand;
             evict t l1 line demand;
             evict t cl.l2 line demand;
             evict t t.l3 line demand;
             served done_at 4)
      end

  let store t ~core ~pc ~addr ~at =
    t.stores <- t.stores + 1;
    let line = addr asr t.shift in
    let l1 = t.l1s.(core) in
    (match lookup l1 line with
     | Some p -> bump t.useful p
     | None ->
       t.l1_miss <- t.l1_miss + 1;
       if not (probe (cluster t core).l2 line || probe t.l3 line) then begin
         t.l2_miss <- t.l2_miss + 1;
         t.l3_miss <- t.l3_miss + 1
       end;
       ignore (fetch t core demand 1 at line);
       evict t l1 line demand);
    t.emit (Sink.Store { core; pc; addr; at })

  let prefetch t ~core ~addr ~locality ~at =
    let level = if locality >= 2 then 1 else if locality = 1 then 2 else 3 in
    let issued = fetch t core sw level at (addr asr t.shift) in
    if issued then bump t.issued sw;
    t.emit (Sink.Sw_prefetch { core; addr; locality; at; issued })

  let stats t : Hierarchy.stats =
    let slug i = if i = sw then "sw" else Hp.slug_of_id i in
    let pcs h =
      List.sort compare (Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) h [])
    in
    { Hierarchy.st_demand_loads = t.loads; st_demand_stores = t.stores;
      st_l1_misses = t.l1_miss; st_l2_misses = t.l2_miss;
      st_l3_misses = t.l3_miss; st_dram_lines = t.dram.lines;
      st_pf =
        List.init n_prov (fun i ->
            ( slug i,
              { Hierarchy.p_issued = t.issued.(i); p_useful = t.useful.(i);
                p_late = t.late.(i); p_drop_mshr = t.drop_mshr.(i);
                p_drop_present = t.drop_present.(i);
                p_evicted = t.evicted.(i) } ));
      st_pc_l1_miss = pcs t.pc_l1; st_pc_l2_miss = pcs t.pc_l2 }
end

(* --- Streams ----------------------------------------------------------- *)

(* The three machine presets, and every prefetcher on (the only setting
   with the L2 next-line unit). *)
let presets =
  [| ("default", Machine.hw_default); ("optimized", Machine.hw_optimized);
     ("optimized-spmm", Machine.hw_optimized_spmm);
     ("all-on", { Machine.hw_default with Machine.l2_nlp = true }) |]

(* A random stream of [n] memory-port calls from [cores] cores. Each
   call's address comes from one of four per-core cursors (sequential,
   strided or descending walks, each wrapping inside its own window so
   that lines are reused; they train the streamers, the IPP and the
   AMP), from a pool of lines that share their low 10 bits (so they
   collide in one set of every level of the scaled machine, whose L3 has
   1024 sets), or from a small random region. Software prefetches run a
   few lines ahead of a cursor. [at] advances by a few cycles per call,
   far less than a DRAM fill, so lines stay in flight and the MSHR pool
   fills; now and then it jumps ahead (the pool drains) or steps back. *)
let stream ~seed ~cores ~n : Stream.event array =
  let rs = Random.State.make [| seed |] in
  let int k = Random.State.int rs k in
  (* 8 KiB is 128 lines, the L2's set count: the L2 AMP then requests
     lines of the set the access itself maps to. *)
  let strides = [| 8; 16; 64; 64; 128; 256; -64; -8; 4096; 8192; -8192 |] in
  let cursor () =
    let base = 0x100000 + (int 4096 * 64) and window = 2048 lsl int 9 in
    (base, window, ref 0, strides.(int (Array.length strides)))
  in
  let cursors = Array.init (cores * 4) (fun _ -> cursor ()) in
  let conflict () = (int 8 + (int 48 * 1024)) * 64 in
  let clock = Array.make cores 0 and last = Array.make cores 0 in
  Array.init n (fun _ ->
      let core = int cores in
      clock.(core) <-
        clock.(core) + (if int 30 = 0 then 100 + int 400 else int 6);
      let at =
        if int 10 = 0 then max 0 (clock.(core) - int 300) else clock.(core)
      in
      (* Runs of calls on one cursor, so the units see clean streams. *)
      let k = if int 4 = 0 then int 4 else last.(core) in
      last.(core) <- k;
      let addr =
        match int 10 with
        | 0 | 1 -> conflict () + int 64
        | 2 -> int (1 lsl 15)
        | _ ->
          let base, window, off, stride = cursors.((core * 4) + k) in
          off := (((!off + stride) mod window) + window) mod window;
          base + !off
      in
      match int 20 with
      | 0 | 1 | 2 ->
        Stream.Prefetch
          { core; addr = addr + (64 * int 12); locality = int 4; at }
      | 3 | 4 -> Stream.Store { core; pc = 0x10000 + k; addr; at }
      | 5 -> Stream.Load { core; pc = 60 + int 200; addr; at }
      | _ -> Stream.Load { core; pc = k; addr; at })

(* Runs [ops] through a hierarchy from [Hierarchy.create] and a fresh
   [Ref] on [machine], then releases the hierarchy: [None] when every
   ready cycle, every event and the final statistics agree, else what
   differed first. *)
let diff1 machine ops =
  let ev_h = ref [] and ev_r = ref [] in
  let h =
    Hierarchy.create ~obs:(Sink.make (fun e -> ev_h := e :: !ev_h)) machine
  in
  let r = Ref.create ~emit:(fun e -> ev_r := e :: !ev_r) machine in
  let first = ref None in
  Array.iteri
    (fun i op ->
      match op with
      | Stream.Load { core; pc; addr; at } ->
        let got = Hierarchy.load h ~core ~pc ~addr ~at
        and want = Ref.load r ~core ~pc ~addr ~at in
        if got <> want && !first = None then
          first := Some (Printf.sprintf "call %d: ready %d, want %d" i got want)
      | Stream.Store { core; pc; addr; at } ->
        Hierarchy.store h ~core ~pc ~addr ~at;
        Ref.store r ~core ~pc ~addr ~at
      | Stream.Prefetch { core; addr; locality; at } ->
        Hierarchy.prefetch h ~core ~addr ~locality ~at;
        Ref.prefetch r ~core ~addr ~locality ~at)
    ops;
  let stats_equal = Hierarchy.stats h = Ref.stats r in
  Hierarchy.release h;
  match !first with
  | Some _ as d -> d
  | None when !ev_h <> !ev_r -> Some "event streams differ"
  | None when not stats_equal -> Some "final stats differ"
  | None -> None

(* [ops] on a hierarchy, then a prefix of them on the one [create] hands
   back after its release, which must behave as new. *)
let diff machine ops =
  match diff1 machine ops with
  | Some d -> Some d
  | None ->
    Option.map
      (fun d -> "reused hierarchy: " ^ d)
      (diff1 machine (Array.sub ops 0 (min 200 (Array.length ops))))

let full = Sys.getenv_opt "ASAP_DIFF_FULL" <> None

(* On 64- and 128-byte lines: the prefetchers' line and page arithmetic
   must follow the machine's line size. *)
let qcheck_differential =
  let gen =
    QCheck2.Gen.(
      pair
        (quad (int_bound (Array.length presets - 1)) (oneofl [ 1; 4; 8 ])
           (int_range 1 (if full then 6000 else 1500))
           (int_bound 1_000_000))
        (oneofl [ 64; 64; 128 ]))
  in
  let print ((p, cores, n, seed), line_bytes) =
    Printf.sprintf "%s, %d cores, %d-byte lines, %d calls, seed %d"
      (fst presets.(p)) cores line_bytes n seed
  in
  QCheck2.Test.make ~count:(if full then 4000 else 800) ~print
    ~name:"hierarchy = reference model" gen
    (fun ((p, cores, n, seed), line_bytes) ->
      let machine =
        { (Machine.gracemont_scaled ~hw:(snd presets.(p)) ~cores ()) with
          Machine.line_bytes }
      in
      match diff machine (stream ~seed ~cores ~n) with
      | None -> true
      | Some what -> QCheck2.Test.fail_report what)

(* With every prefetcher off, L1 is plain LRU over the demand loads, an
   algorithm with the stack property: at a fixed set count, more ways
   never add a miss. *)
let qcheck_lru_stack =
  let off =
    { Machine.l1_nlp = false; l1_ipp = false; l2_nlp = false;
      mlc_streamer = false; l2_amp = false; llc_streamer = false }
  in
  let l1_misses ways ops =
    (* 16 sets of [ways] lines of 64 bytes. *)
    let m =
      { (Machine.gracemont_scaled ~hw:off ()) with
        Machine.l1_kb = ways; l1_ways = ways }
    in
    let h = Hierarchy.create m in
    Array.iter
      (function
        | Stream.Load { pc; addr; at; _ } ->
          ignore (Hierarchy.load h ~core:0 ~pc ~addr ~at)
        | Stream.Store _ | Stream.Prefetch _ -> ())
      ops;
    (Hierarchy.stats h).Hierarchy.st_l1_misses
  in
  QCheck2.Test.make ~count:(if full then 1000 else 100)
    ~name:"L1 misses never grow with ways (LRU stack property)"
    QCheck2.Gen.(pair (int_range 1 2000) (int_bound 1_000_000))
    (fun (n, seed) ->
      let ops = stream ~seed ~cores:1 ~n in
      let misses = List.map (fun w -> l1_misses w ops) [ 1; 2; 3; 4; 8; 16 ] in
      let rec non_increasing = function
        | a :: (b :: _ as rest) -> a >= b && non_increasing rest
        | _ -> true
      in
      non_increasing misses)

(* Real kernel streams: every spmv/spmm/sddmm x csr/dcsr/bsr2x2 x
   baseline/asap/aj run [Driver.run] accepts on a small matrix, recorded
   with [Stream] at 1 core and, where the top level is dense (not dcsr),
   at 4 cores. They carry the ROB-windowed issue times and software
   prefetch mixes the random streams only approximate. Each recording
   must replay exactly into a fresh hierarchy and go through [diff]; the
   prefetcher preset rotates over the runs. *)
let test_recorded_streams () =
  let n = if full then 600 else 96 in
  let coo =
    Asap_workloads.Generate.power_law ~seed:5 ~rows:n ~cols:n ~avg_deg:5
      ~alpha:2.0 ()
  in
  let kernels =
    [ ("spmv", fun e -> Driver.Spmv e); ("spmm", fun e -> Driver.Spmm e);
      ("sddmm", fun e -> Driver.Sddmm e) ]
  and formats =
    [ ("csr", Encoding.csr ()); ("dcsr", Encoding.dcsr ());
      ("bsr2x2", Encoding.bsr ~bh:2 ~bw:2 ()) ]
  and variants =
    [ Pipeline.Baseline; Pipeline.Asap Asap_prefetch.Asap.default;
      Pipeline.Ainsworth_jones Asap_prefetch.Ainsworth_jones.default ]
  in
  let runs = ref 0 in
  List.iter
    (fun (kname, kernel) ->
      List.iter
        (fun (fname, enc) ->
          List.iter
            (fun variant ->
              List.iter
                (fun threads ->
                  if threads = 1 || enc.Encoding.levels.(0) = Encoding.Dense
                  then begin
                    let name, hw = presets.(!runs mod Array.length presets) in
                    let machine =
                      Machine.gracemont_scaled ~hw ~cores:threads ()
                    in
                    let s, r =
                      Stream.record (fun obs ->
                          Driver.run
                            (Driver.Cfg.make ~obs ~threads ~machine ~variant ())
                            (kernel enc) coo)
                    in
                    incr runs;
                    let what =
                      Printf.sprintf "%s %s, %s, %d cores, %s" kname fname
                        (Pipeline.variant_name variant) threads name
                    in
                    let stats = r.Driver.report.Asap_sim.Exec.rp_mem in
                    if not (Stream.replay s machine stats) then
                      Alcotest.failf "%s: replay not exact" what;
                    Option.iter
                      (fun d -> Alcotest.failf "%s: %s" what d)
                      (diff machine (Array.of_list (Stream.events s)))
                  end)
                [ 1; 4 ])
            variants)
        formats)
    kernels;
  (* 3 kernels x 3 variants x (3 formats at 1 core + 2 at 4). *)
  Alcotest.(check int) "every combination ran" 45 !runs

let suite =
  [ QCheck_alcotest.to_alcotest qcheck_differential;
    QCheck_alcotest.to_alcotest qcheck_lru_stack;
    Alcotest.test_case "recorded kernel streams = reference model" `Quick
      test_recorded_streams ]
