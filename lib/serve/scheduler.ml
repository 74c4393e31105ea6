(* The deterministic serving fleet.

   Serving must produce the same results whatever the host parallelism,
   so the replay is split into two passes:

   Pass 1 (host time, parallel): the set of distinct fingerprints is
   collected in sorted order and each entry is built once on a {!Par}
   domain pool — sparsify, prefetch-inject, pack, lay out, assemble the
   bytecode, tune if asked, and run once cold. Results land in
   index-slotted arrays, so this pass is deterministic for any [jobs].
   The build pass is one {!Par.map} over the sorted ids whatever the
   shard count: builds are pure, so which shard will serve an entry
   has no bearing on how it is built. Repeat fingerprints never rebuild:
   this is the host-side half of the compile/tune cache. With the cache
   disabled ([cache_capacity = 0]) the memoisation is disabled too —
   every request builds its own entry, which is the honest baseline the
   serve bench compares against.

   Pass 2 (virtual time, sequential): a discrete-event simulation of
   the fleet — [shards] shards, each owning [servers] identical virtual
   servers, a bounded FIFO queue and its own LRU, drained by one global
   earliest-dispatch loop. Every request is admitted to the home shard
   its fingerprint hashes to (per-tenant quotas and the per-shard queue
   limit shed at admission); an idle shard steals the head batch of the
   longest queue; same-fingerprint waiters are served as one batch; a
   request whose deadline expired while queued is degraded, dropped or
   served anyway per the configured policy. All times are virtual
   milliseconds derived from simulated cycles, and every scheduling
   decision (candidate order, tie-breaks, admission chronology) is a
   pure function of the request list and config — byte-identical
   records at any [jobs].

   Every distinct versioned fingerprint is interned to a dense int id
   before pass 1, and tenants likewise, so the settle loop does integer
   work per event: routing is one hash per id, shard LRUs are keyed by
   id, batching compares ids, shard queues are fixed ring buffers, and
   the fingerprint string survives only as the one copy every record of
   its id shares.

   Determinism argument for the loop: dispatch candidates are settled
   one event at a time. The next event is either the earliest pending
   arrival (admitted to its home shard, possibly shed) or the earliest
   candidate dispatch (t0, serving shard, source shard), whichever is
   earlier — arrivals win ties, lower shard index breaks candidate
   ties. Host parallelism never enters: virtual times come from the
   deterministic build pass, and the fleet state is plain sequential
   OCaml. With [shards = 1] the loop specialises to the classic
   single-scheduler chronology (one candidate, stepwise admission
   admits exactly the arrivals at or before its t0). *)

module Coo = Asap_tensor.Coo
module Encoding = Asap_tensor.Encoding
module Storage = Asap_tensor.Storage
module Driver = Asap_core.Driver
module Par = Asap_core.Par
module Generate = Asap_workloads.Generate
module Registry = Asap_obs.Registry
module Chrome = Asap_obs.Chrome
module Jsonu = Asap_obs.Jsonu
module Select = Asap_model.Select

type outcome = Served | Degraded | Shed

let outcome_to_string = function
  | Served -> "ok"
  | Degraded -> "degraded"
  | Shed -> "shed"

type record = {
  r_index : int;                   (* position in the input list *)
  r_req : Request.t;
  r_outcome : outcome;
  r_fp : string;                   (* fingerprint actually served *)
  r_hit : bool;                    (* cache hit at dispatch *)
  r_batch : int;                   (* size of its dispatch batch; 0 = shed *)
  r_queue_ms : float;              (* admission wait: dispatch - arrival *)
  r_service_ms : float;            (* own run + (miss) build penalty *)
  r_finish_ms : float;             (* virtual completion; arrival if shed *)
  r_shard : int;                   (* shard whose server dispatched it *)
  r_home : int;                    (* shard its fingerprint routed to *)
  r_stolen : bool;                 (* served by a shard other than home *)
  r_result : Driver.result option; (* None for shed *)
}

type replayed = {
  rp_records : record array;       (* input order *)
  rp_summary : Slo.summary;
  rp_shards : Slo.shard_summary array;
  rp_registry : Registry.t;
}

(* Matrices are named by spec string; resolve each distinct spec once,
   in parallel (generation is deterministic, results index-slotted). *)
let build_matrices ~jobs (reqs : Request.t array) :
    (string, Coo.t) Hashtbl.t =
  let specs =
    Array.to_list reqs
    |> List.map (fun r -> r.Request.matrix)
    |> List.sort_uniq String.compare
    |> Array.of_list
  in
  let coos =
    Par.map ~jobs
      (fun spec ->
        match Generate.of_spec spec with
        | Ok coo -> coo
        | Error e -> invalid_arg ("Scheduler: " ^ e))
      specs
  in
  let tbl = Hashtbl.create (Array.length specs) in
  Array.iteri (fun i spec -> Hashtbl.add tbl spec coos.(i)) specs;
  tbl

let us_of_ms ms = int_of_float (Float.round (ms *. 1000.))

let run ?(trace : Chrome.t option) ?(updates : Request.Update.t list = [])
    (config : Config.t) (requests : Request.t list) : replayed =
  Config.validate config;
  let reqs = Array.of_list requests in
  let n = Array.length reqs in
  (* --- Streaming updates: versions --------------------------------- *)
  (* Updates sorted by fire time (stable on stream order); a request's
     version is the number of its matrix's updates at or before its
     arrival — a pure function of the item stream, so versioning (and
     with it every fingerprint) is identical at any [jobs]. *)
  let upd_sorted =
    List.stable_sort
      (fun a b -> compare a.Request.Update.u_at_ms b.Request.Update.u_at_ms)
      updates
  in
  let upd_by_matrix : (string, Request.Update.t array) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun u ->
      let m = u.Request.Update.u_matrix in
      let prev =
        Option.value (Hashtbl.find_opt upd_by_matrix m) ~default:[||]
      in
      Hashtbl.replace upd_by_matrix m (Array.append prev [| u |]))
    upd_sorted;
  let version_at (matrix : string) (t : float) : int =
    match Hashtbl.find_opt upd_by_matrix matrix with
    | None -> 0
    | Some us ->
      let v = ref 0 in
      Array.iter
        (fun u -> if u.Request.Update.u_at_ms <= t then incr v)
        us;
      !v
  in
  let ver =
    Array.map
      (fun r -> version_at r.Request.matrix r.Request.arrival_ms)
      reqs
  in
  (* Version 0 keeps the bare fingerprint, so update-free replays are
     byte-identical to what they were before updates existed. *)
  let vkey key v = if v = 0 then key else Printf.sprintf "%s|v%d" key v in
  let caching = config.Config.cache_capacity > 0 in
  let nshards = config.Config.shards in
  let router = Router.create ~shards:nshards () in
  let jobs = config.Config.jobs in
  let has_deadline = Array.map (fun r -> r.Request.deadline <> None) reqs in

  (* --- Interned artefact ids --------------------------------------- *)
  (* Every distinct versioned fingerprint gets a dense int id, in order
     of first appearance: a request's primary, then — only for a
     deadline-carrying request, the only kind [Degrade] can demote — its
     fallback. The first producer of an id is its representative. Only
     fields inside the (versioned) fingerprint affect the build, so any
     representative yields the same entry. Past this point the replay
     compares, hashes and routes ids; the fingerprint string is built
     once per request and kept once per id. *)
  let ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let reps = ref [] in
  let intern (req : Request.t) v =
    let key = vkey (Request.fingerprint req) v in
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length ids in
      Hashtbl.add ids key id;
      reps := (key, req, v) :: !reps;
      id
  in
  let prim = Array.make n 0 in
  let fb = Array.make n (-1) in
  Array.iteri
    (fun i r ->
      prim.(i) <- intern r ver.(i);
      if has_deadline.(i) then fb.(i) <- intern (Request.fallback r) ver.(i))
    reqs;
  let reps = Array.of_list (List.rev !reps) in
  let nids = Array.length reps in
  let id_fp = Array.map (fun (key, _, _) -> key) reps in
  let id_req = Array.map (fun (_, req, _) -> req) reps in
  let id_ver = Array.map (fun (_, _, v) -> v) reps in
  let id_of i = function `Primary -> prim.(i) | `Fallback -> fb.(i) in
  (* Home shard: consistent hash of the fingerprint, once per id. *)
  let id_home = Array.map (Router.shard_of router) id_fp in
  let home i = id_home.(prim.(i)) in
  (* Tenants, interned the same way: admission and the per-tenant
     summary index arrays instead of hashing names. *)
  let tenant_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let tenant =
    Array.map
      (fun r ->
        let t = r.Request.tenant in
        match Hashtbl.find_opt tenant_ids t with
        | Some k -> k
        | None ->
          let k = Hashtbl.length tenant_ids in
          Hashtbl.add tenant_ids t k;
          k)
      reqs
  in
  let ntenants = Hashtbl.length tenant_ids in
  let tenant_name = Array.make ntenants "" in
  Hashtbl.iter (fun t k -> tenant_name.(k) <- t) tenant_ids;

  (* --- Pass 1: host-side builds ------------------------------------ *)
  let matrices = build_matrices ~jobs id_req in
  (* Versioned matrices: version v of a spec is its base generation with
     the first v updates applied cumulatively (sequential — deltas are
     small next to generation, and the fold is inherently ordered). *)
  let mat_v : (string * int, Coo.t) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter (fun spec coo -> Hashtbl.add mat_v (spec, 0) coo) matrices;
  Hashtbl.iter
    (fun spec us ->
      if Hashtbl.mem matrices spec then begin
        let coo = ref (Hashtbl.find matrices spec) in
        Array.iteri
          (fun k u ->
            coo := Request.Update.apply u !coo;
            Hashtbl.replace mat_v (spec, k + 1) !coo)
          us
      end)
    upd_by_matrix;
  let coo_of r v = Hashtbl.find mat_v (r.Request.matrix, v) in
  let build_one st ((req : Request.t), v) = Build.build ?st req (coo_of req v) in
  (* Work items: with caching, one per id (the fallback of every
     deadline-carrying request is built eagerly so degradation never
     blocks); without, one per request. [built] keeps every entry in a
     deterministic order (sorted fingerprints when caching, input order
     otherwise) so the tuning counters aggregated from them are
     jobs-invariant. *)
  let entry_for, builds, built, pack_uses, packs =
    if caching then begin
      (* --- Pack-memoisation pre-pass ------------------------------- *)
      (* Packing is a pure function of (matrix, version, encoding), and
         many distinct ids share one: same matrix under the same format
         across variants, engines or tuning modes. Each distinct triple
         packs once here (sorted keys, index-slotted Par.map — jobs-
         invariant) and every build consumes the shared storage. The
         encoding's name keys the format, so spellings that resolve to
         the same encoding (["bsr"] vs ["bsr4x4"]) share one pack. Only
         with the cache: the uncached baseline pays every pack, like it
         pays every build. *)
      let id_pack =
        Array.init nids (fun id ->
            let req = id_req.(id) and v = id_ver.(id) in
            match
              Request.encoding_of_format req.Request.kernel req.Request.format
            with
            | Some enc when req.Request.kernel <> `Ttv ->
              if Coo.rank (coo_of req v) = 2 then
                Some (req.Request.matrix, v, enc.Encoding.name, enc)
              else None
            | _ -> None)
      in
      (* The first id of each pack key is its representative. *)
      let pack_rep = Hashtbl.create 16 in
      Array.iteri
        (fun id -> function
          | Some (m, v, f, enc) ->
            if not (Hashtbl.mem pack_rep (m, v, f)) then
              Hashtbl.add pack_rep (m, v, f) (enc, coo_of id_req.(id) v)
          | None -> ())
        id_pack;
      let pack_keys =
        Hashtbl.fold (fun k _ acc -> k :: acc) pack_rep []
        |> List.sort compare |> Array.of_list
      in
      let packed =
        Par.map ~jobs
          (fun k ->
            let enc, coo = Hashtbl.find pack_rep k in
            Storage.pack enc coo)
          pack_keys
      in
      let prepack_tbl = Hashtbl.create (Array.length pack_keys) in
      Array.iteri (fun i k -> Hashtbl.add prepack_tbl k packed.(i)) pack_keys;
      let prepack =
        Array.map
          (Option.map (fun (m, v, f, _) -> Hashtbl.find prepack_tbl (m, v, f)))
          id_pack
      in
      let build_id id =
        build_one prepack.(id) (id_req.(id), id_ver.(id))
      in
      let order = Array.init nids Fun.id in
      Array.stable_sort (fun a b -> String.compare id_fp.(a) id_fp.(b)) order;
      let entries = Par.map ~jobs build_id order in
      let slot = Array.make nids 0 in
      Array.iteri (fun k id -> slot.(id) <- k) order;
      (* Builds that consumed a shared pack — jobs-invariant, like the
         builds. *)
      let pack_uses =
        Array.fold_left
          (fun acc st -> if st <> None then acc + 1 else acc)
          0 prepack
      in
      ( (fun i which -> entries.(slot.(id_of i which))),
        nids, entries, pack_uses, Array.length pack_keys )
    end
    else begin
      (* Uncached baseline: every request pays its own build — primaries
         first, then the fallbacks of deadline-carrying requests, all in
         input order so results stay index-slotted. *)
      let fb_idx =
        Array.to_list (Array.init n Fun.id)
        |> List.filter (fun i -> has_deadline.(i))
        |> Array.of_list
      in
      let work =
        Array.append
          (Array.mapi (fun i r -> (r, ver.(i))) reqs)
          (Array.map (fun i -> (Request.fallback reqs.(i), ver.(i))) fb_idx)
      in
      let entries = Par.map ~jobs (build_one None) work in
      let fbent : Build.entry option array = Array.make n None in
      Array.iteri (fun k i -> fbent.(i) <- Some entries.(n + k)) fb_idx;
      let lookup i = function
        | `Primary -> entries.(i)
        | `Fallback -> Option.get fbent.(i)
      in
      (lookup, Array.length work, entries, 0, 0)
    end
  in

  (* --- Pass 2: virtual-time discrete-event simulation --------------- *)
  let arrival i = reqs.(i).Request.arrival_ms in
  let deadline_abs =
    Array.mapi
      (fun i r ->
        if has_deadline.(i) then Request.deadline_ms r (Request.machine_of r)
        else None)
      reqs
  in
  (* Arrivals in (arrival, index) order. *)
  let pending =
    ref
      (List.stable_sort
         (fun a b -> compare (arrival a) (arrival b))
         (List.init n Fun.id))
  in
  let shards =
    Array.init nshards (fun index ->
        Shard.create ~index ~servers:config.Config.servers
          ~cache_capacity:config.Config.cache_capacity
          ~queue_limit:config.Config.queue_limit)
  in
  (* Update events in fire order, each tagged with the version it brings
     its matrix to. Firing drops every cached entry of an older version
     of that matrix from every shard's LRU — post-update requests carry
     new fingerprints and can never hit them anyway, but reclaiming the
     slots keeps the cache honest and the counter observable. *)
  let update_events =
    let count : (string, int) Hashtbl.t = Hashtbl.create 8 in
    List.map
      (fun u ->
        let m = u.Request.Update.u_matrix in
        let c = 1 + Option.value (Hashtbl.find_opt count m) ~default:0 in
        Hashtbl.replace count m c;
        (u, c))
      upd_sorted
  in
  let pending_updates = ref update_events in
  let fire_update ((u : Request.Update.t), vnew) =
    let m = u.Request.Update.u_matrix in
    Array.iter
      (fun sh ->
        let removed =
          Lru.remove_if sh.Shard.lru (fun id ->
              String.equal id_req.(id).Request.matrix m && id_ver.(id) < vnew)
        in
        sh.Shard.invalidated <- sh.Shard.invalidated + removed)
      shards
  in
  let tenant_quota = Array.map (Config.quota_of config) tenant_name in
  let tenant_queued = Array.make ntenants 0 in
  let tenant_quota_shed = Array.make ntenants 0 in
  let total_q = ref 0 in
  let fleet_queue_peak = ref 0 in
  let inflight_peak = ref 0 in
  let steals = ref 0 in
  (* Specialized artefacts served from cache, counted at the sequential
     dispatch loop — jobs-invariant like every pass-2 quantity. *)
  let spec_hits = ref 0 in
  let recs : record option array = Array.make n None in
  let trace_shed i =
    match trace with
    | None -> ()
    | Some tr ->
      Chrome.add_instant tr ~track:"admission" ~name:reqs.(i).Request.id
        ~cat:"shed" ~ts:(us_of_ms (arrival i))
        [ ("fp", Jsonu.Str id_fp.(prim.(i))) ]
  in
  (* Admission sheds (queue full or quota) are attributed to the
     request's home shard; its record never reached a server, so
     r_shard = r_home. *)
  let shed_at_admission why i =
    let s = home i in
    shards.(s).Shard.shed <- shards.(s).Shard.shed + 1;
    (if why = `Quota then
       let k = tenant.(i) in
       tenant_quota_shed.(k) <- tenant_quota_shed.(k) + 1);
    recs.(i) <-
      Some
        { r_index = i; r_req = reqs.(i); r_outcome = Shed;
          r_fp = id_fp.(prim.(i)); r_hit = false; r_batch = 0;
          r_queue_ms = 0.; r_service_ms = 0.; r_finish_ms = arrival i;
          r_shard = s; r_home = s; r_stolen = false; r_result = None };
    trace_shed i
  in
  let admit_one i =
    let k = tenant.(i) in
    let over_quota =
      match tenant_quota.(k) with
      | Some q -> tenant_queued.(k) >= q
      | None -> false
    in
    if over_quota then shed_at_admission `Quota i
    else begin
      let sh = shards.(home i) in
      if Shard.full sh then shed_at_admission `Queue i
      else begin
        Shard.enqueue sh i;
        tenant_queued.(k) <- tenant_queued.(k) + 1;
        incr total_q;
        if !total_q > !fleet_queue_peak then fleet_queue_peak := !total_q
      end
    end
  in
  let unqueued i =
    let k = tenant.(i) in
    tenant_queued.(k) <- tenant_queued.(k) - 1;
    decr total_q
  in
  (* The earliest possible dispatch across the fleet:
     (t0, serving shard, source shard). A shard with work serves its own
     head; an idle shard (stealing on) targets the longest other queue
     (lowest index on ties). Own-queue candidates are scanned first and
     [consider] keeps the incumbent on ties, so a steal fires only when
     it is *strictly* earlier than every home dispatch — an equally-free
     home shard keeps its own work (and its cache locality) instead of
     losing it to a lower-indexed idle shard. Ties within each class go
     to the lowest serving shard. *)
  let best_candidate () =
    let best = ref None in
    let consider t srv src =
      match !best with
      | Some (bt, _, _) when bt <= t -> ()
      | _ -> best := Some (t, srv, src)
    in
    for s = 0 to nshards - 1 do
      let sh = shards.(s) in
      if sh.Shard.qlen > 0 then
        consider
          (Float.max sh.Shard.free.(Shard.min_server sh)
             (arrival (Shard.head sh)))
          s s
    done;
    if config.Config.stealing then
      for s = 0 to nshards - 1 do
        let sh = shards.(s) in
        if sh.Shard.qlen = 0 then begin
          let v = ref (-1) in
          for u = 0 to nshards - 1 do
            if
              u <> s
              && shards.(u).Shard.qlen > 0
              && (!v < 0 || shards.(u).Shard.qlen > shards.(!v).Shard.qlen)
            then v := u
          done;
          if !v >= 0 then
            consider
              (Float.max sh.Shard.free.(Shard.min_server sh)
                 (arrival (Shard.head shards.(!v))))
              s !v
        end
      done;
    !best
  in
  let expired ~t0 i =
    match deadline_abs.(i) with Some d -> t0 > d | None -> false
  in
  let dispatch t0 s v =
    let sh = shards.(s) and src = shards.(v) in
    let k = Shard.min_server sh in
    let h = Shard.take src in
    unqueued h;
    if config.Config.deadline_policy = Config.Drop && expired ~t0 h then begin
      (* Dropped at dispatch: shed without consuming server time,
         attributed to the queue it waited in. *)
      src.Shard.shed <- src.Shard.shed + 1;
      recs.(h) <-
        Some
          { r_index = h; r_req = reqs.(h); r_outcome = Shed;
            r_fp = id_fp.(prim.(h)); r_hit = false; r_batch = 0;
            r_queue_ms = t0 -. arrival h; r_service_ms = 0.; r_finish_ms = t0;
            r_shard = v; r_home = home h; r_stolen = false; r_result = None };
      trace_shed h
    end
    else begin
      let eff i =
        match config.Config.deadline_policy with
        | Config.Degrade when expired ~t0 i -> `Fallback
        | Config.Degrade | Config.Drop | Config.Ignore -> `Primary
      in
      let eh = eff h in
      let key = id_of h eh in
      let batch =
        if config.Config.batching && caching then begin
          (* Under Drop, expired same-id waiters stay queued (they drop
             when they reach the head) instead of riding the batch. *)
          let mates =
            Shard.take_matching src (fun j ->
                id_of j (eff j) = key
                && not
                     (config.Config.deadline_policy = Config.Drop
                      && expired ~t0 j))
          in
          List.iter unqueued mates;
          h :: mates
        end
        else [ h ]
      in
      let nb = List.length batch in
      Shard.note_batch sh nb;
      if s <> v then begin
        incr steals;
        sh.Shard.steals_in <- sh.Shard.steals_in + 1;
        src.Shard.steals_out <- src.Shard.steals_out + 1
      end;
      let entry = entry_for h eh in
      let hit = Lru.find sh.Shard.lru key <> None in
      (* Stale-hit invariant: a hit's entry version must be exactly the
         version the request's arrival pinned. Versioned fingerprints
         make a violation structurally impossible; the counter proves
         it stayed that way. *)
      if hit && id_ver.(key) <> ver.(h) then
        sh.Shard.stale_hits <- sh.Shard.stale_hits + 1;
      if hit && entry.Build.e_spec then spec_hits := !spec_hits + nb;
      if not hit then ignore (Lru.add sh.Shard.lru key entry);
      let penalty =
        if hit then 0.
        else Build.miss_penalty_ms entry
      in
      let run_ms = entry.Build.e_run_ms in
      let fp = id_fp.(key) in
      List.iteri
        (fun pos j ->
          let start = t0 +. penalty +. (run_ms *. float_of_int pos) in
          let finish = start +. run_ms in
          let outcome = if eff j = `Fallback then Degraded else Served in
          assert (t0 -. arrival j >= 0.);
          recs.(j) <-
            Some
              { r_index = j; r_req = reqs.(j); r_outcome = outcome;
                r_fp = fp; r_hit = hit; r_batch = nb;
                r_queue_ms = t0 -. arrival j;
                r_service_ms = (if pos = 0 then penalty +. run_ms else run_ms);
                r_finish_ms = finish; r_shard = s; r_home = home j;
                r_stolen = s <> v; r_result = Some entry.Build.e_result };
          match trace with
          | None -> ()
          | Some tr ->
            let ts = if pos = 0 then us_of_ms t0 else us_of_ms start in
            let track =
              if nshards = 1 then Printf.sprintf "server%d" k
              else Printf.sprintf "shard%d.server%d" s k
            in
            Chrome.add_complete tr ~track ~name:reqs.(j).Request.id
              ~cat:"serve" ~ts
              ~dur:(us_of_ms finish - ts)
              [ ("fp", Jsonu.Str fp);
                ("hit", Jsonu.Bool hit);
                ("outcome", Jsonu.Str (outcome_to_string outcome));
                ("batch", Jsonu.Int nb) ])
        batch;
      sh.Shard.free.(k) <- t0 +. penalty +. (run_ms *. float_of_int nb);
      let inflight =
        Array.fold_left
          (fun acc sh ->
            Array.fold_left
              (fun acc f -> if f > t0 then acc + 1 else acc)
              acc sh.Shard.free)
          0 shards
      in
      if inflight > !inflight_peak then inflight_peak := inflight
    end
  in

  (* The settle loop: one event per iteration — the earliest pending
     arrival when it is at or before the earliest candidate dispatch
     (so admission chronology is exact: a dispatch at t0 sees exactly
     the arrivals <= t0, as the classic scheduler's admit_until did),
     otherwise that dispatch. Each iteration strictly shrinks
     [pending] or a queue, so the loop terminates. *)
  (* An update at time t fires before arrivals at t (that arrival's
     version already counts it) and before dispatches at t (a dispatch
     must never see an entry an update at the same instant should have
     dropped). All three event classes are drained sequentially, so the
     chronology is jobs-invariant. *)
  let update_due t =
    match !pending_updates with
    | (u, _) :: _ -> u.Request.Update.u_at_ms <= t
    | [] -> false
  in
  let fire_next () =
    match !pending_updates with
    | e :: rest ->
      pending_updates := rest;
      fire_update e
    | [] -> ()
  in
  let continue = ref true in
  while !continue do
    match (best_candidate (), !pending) with
    | None, [] ->
      if !pending_updates = [] then continue := false else fire_next ()
    | None, i :: rest ->
      if update_due (arrival i) then fire_next ()
      else begin
        pending := rest;
        admit_one i
      end
    | Some (t0, s, v), p ->
      (match p with
       | i :: rest when arrival i <= t0 ->
         if update_due (arrival i) then fire_next ()
         else begin
           pending := rest;
           admit_one i
         end
       | _ -> if update_due t0 then fire_next () else dispatch t0 s v)
  done;

  (* --- Summarise ---------------------------------------------------- *)
  let records =
    Array.mapi
      (fun i r ->
        match r with
        | Some r -> r
        | None -> invalid_arg (Printf.sprintf "Scheduler: request %d lost" i))
      recs
  in
  (* Per-shard served counts and latencies, attributed to the serving
     shard, accumulated in input order (so pooled latencies match the
     classic single-shard order exactly). *)
  let ok_s = Array.make nshards 0 in
  let deg_s = Array.make nshards 0 in
  let lats_s = Array.make nshards [] in
  let lats = ref [] in
  let makespan = ref 0. in
  Array.iter
    (fun r ->
      match r.r_outcome with
      | Shed -> ()
      | Served | Degraded ->
        (match r.r_outcome with
         | Served -> ok_s.(r.r_shard) <- ok_s.(r.r_shard) + 1
         | _ -> deg_s.(r.r_shard) <- deg_s.(r.r_shard) + 1);
        let lat = r.r_finish_ms -. r.r_req.Request.arrival_ms in
        lats_s.(r.r_shard) <- lat :: lats_s.(r.r_shard);
        lats := lat :: !lats;
        if r.r_finish_ms > !makespan then makespan := r.r_finish_ms)
    records;
  let shard_summaries =
    Array.init nshards (fun s ->
        let sh = shards.(s) in
        Slo.shard_make ~index:s
          ~latencies_ms:(Array.of_list (List.rev lats_s.(s)))
          ~ok:ok_s.(s) ~degraded:deg_s.(s) ~shed:sh.Shard.shed
          ~hits:(Lru.hits sh.Shard.lru) ~misses:(Lru.misses sh.Shard.lru)
          ~evictions:(Lru.evictions sh.Shard.lru) ~batches:sh.Shard.batches
          ~batch_max:sh.Shard.batch_max ~queue_peak:sh.Shard.queue_peak
          ~steals_in:sh.Shard.steals_in ~steals_out:sh.Shard.steals_out
          ~invalidated:sh.Shard.invalidated
          ~stale_hits:sh.Shard.stale_hits ())
  in
  let registry = Registry.create () in
  Array.iter (Slo.shard_register registry) shard_summaries;
  (* Fleet totals over additive leaves are DERIVED from the per-shard
     counters just registered, not maintained separately — the
     aggregation is a fold over the registry, deterministic because the
     leaves are commutative sums. *)
  let fleet leaf = Registry.sum_prefix registry ~leaf "serve.shard." in
  let batch_max =
    Array.fold_left (fun m sh -> max m sh.Shard.batch_max) 0 shards
  in
  let summary =
    Slo.make
      ~latencies_ms:(Array.of_list (List.rev !lats))
      ~ok:(fleet "ok") ~degraded:(fleet "degraded") ~shed:(fleet "shed")
      ~hits:(fleet "cache.hit") ~misses:(fleet "cache.miss")
      ~evictions:(fleet "cache.evict") ~batches:(fleet "batch.count")
      ~batch_max ~queue_peak:!fleet_queue_peak ~inflight_peak:!inflight_peak
      ~builds ~steals:!steals ~makespan_ms:!makespan
      ~invalidated:(fleet "cache.invalidated")
      ~stale_hits:(fleet "cache.stale_hit") ()
  in
  Slo.register registry summary;
  (* Per-tenant admission accounting: one pass over the records,
     exported in tenant-name order. *)
  let t_requests = Array.make ntenants 0 and t_ok = Array.make ntenants 0 in
  let t_deg = Array.make ntenants 0 and t_shed = Array.make ntenants 0 in
  Array.iter
    (fun r ->
      let k = tenant.(r.r_index) in
      t_requests.(k) <- t_requests.(k) + 1;
      match r.r_outcome with
      | Served -> t_ok.(k) <- t_ok.(k) + 1
      | Degraded -> t_deg.(k) <- t_deg.(k) + 1
      | Shed -> t_shed.(k) <- t_shed.(k) + 1)
    records;
  let by_name = Array.init ntenants Fun.id in
  Array.sort (fun a b -> String.compare tenant_name.(a) tenant_name.(b)) by_name;
  Array.iter
    (fun k ->
      let pre leaf = Printf.sprintf "serve.tenant.%s.%s" tenant_name.(k) leaf in
      Registry.set registry (pre "requests") t_requests.(k);
      Registry.set registry (pre "ok") t_ok.(k);
      Registry.set registry (pre "degraded") t_deg.(k);
      Registry.set registry (pre "shed") t_shed.(k);
      Registry.set registry (pre "quota_shed") tenant_quota_shed.(k))
    by_name;
  (* Tuning-decision counters, aggregated over the deterministic build
     list: how many builds swept, how many ran the model, how many
     rolled prefetching back — and, for hybrid builds, whether the model
     agreed with the sweep and the profiled-cycle regret when not. *)
  Array.iter
    (fun (e : Build.entry) ->
      match e.Build.e_decide with
      | None -> ()
      | Some d ->
        if d.Select.d_sweep <> None then
          Registry.add registry "serve.tune.sweep_runs" 1;
        if d.Select.d_model <> None then
          Registry.add registry "serve.tune.model_decisions" 1;
        (match d.Select.d_chosen with
         | Asap_core.Pipeline.Baseline ->
           Registry.add registry "serve.tune.rollbacks" 1
         | _ -> ());
        (match d.Select.d_agree with
         | Some true -> Registry.add registry "tune.model.agree" 1
         | Some false ->
           Registry.add registry "tune.model.disagree" 1;
           (match d.Select.d_delta_cycles with
            | Some dc -> Registry.add registry "tune.model.delta_cycles" dc
            | None -> ())
         | None -> ()))
    built;
  (* Specialization counters: misses are the specialized builds (each
     build IS a cache miss), hits the specialized entries served from a
     shard LRU at dispatch, build_ns the host time Prep.make spent under
     specialization (a wall-clock quantity — informative, not part of
     the byte-identical record surface). Pack memoisation mirrors the
     shape: misses are the packs performed, hits the builds that reused
     one. *)
  let spec_misses =
    Array.fold_left
      (fun acc (e : Build.entry) -> if e.Build.e_spec then acc + 1 else acc)
      0 built
  in
  let spec_build_ns =
    Array.fold_left (fun acc (e : Build.entry) -> acc + e.Build.e_spec_ns) 0 built
  in
  Registry.set registry "serve.spec.hit" !spec_hits;
  Registry.set registry "serve.spec.miss" spec_misses;
  Registry.set registry "serve.spec.build_ns" spec_build_ns;
  Registry.set registry "serve.pack.hit" (max 0 (pack_uses - packs));
  Registry.set registry "serve.pack.miss" packs;
  { rp_records = records; rp_summary = summary; rp_shards = shard_summaries;
    rp_registry = registry }

(* One record as a JSONL object — virtual quantities only, so replay
   output is byte-comparable across runs and host parallelism. *)
let checksum (res : Driver.result) : float =
  match (res.Driver.out_f, res.Driver.out_b) with
  | Some a, _ -> Array.fold_left ( +. ) 0. a
  | None, Some b ->
    let acc = ref 0 in
    Bytes.iter (fun c -> acc := !acc + Char.code c) b;
    float_of_int !acc
  | None, None -> 0.

let record_to_json (r : record) : Jsonu.t =
  let base =
    [ ("index", Jsonu.Int r.r_index);
      ("id", Jsonu.Str r.r_req.Request.id);
      ("tenant", Jsonu.Str r.r_req.Request.tenant);
      ("outcome", Jsonu.Str (outcome_to_string r.r_outcome));
      ("fp", Jsonu.Str r.r_fp);
      ("hit", Jsonu.Bool r.r_hit);
      ("batch", Jsonu.Int r.r_batch);
      ("shard", Jsonu.Int r.r_shard);
      ("home", Jsonu.Int r.r_home);
      ("stolen", Jsonu.Bool r.r_stolen);
      ("queue_ms", Jsonu.Float r.r_queue_ms);
      ("service_ms", Jsonu.Float r.r_service_ms);
      ("finish_ms", Jsonu.Float r.r_finish_ms) ]
  in
  let result =
    match r.r_result with
    | None -> []
    | Some res ->
      let report = res.Driver.report in
      [ ("cycles", Jsonu.Int (Asap_sim.Exec.Report.cycles report));
        ("checksum", Jsonu.Float (checksum res)) ]
  in
  Jsonu.Obj (base @ result)

let record_to_line (r : record) : string = Jsonu.to_string (record_to_json r)
