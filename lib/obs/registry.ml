(* Named-counter registry.

   Every PMU-style counter carries a stable dotted name ("core.cycles",
   "l2.miss.demand", "pf.sw.late", ...) so consumers address counters by
   name instead of destructuring a record — adding a counter never breaks
   a consumer again. The canonical export is the name-sorted assoc list:
   two registries over the same run are byte-identical exactly when every
   counter agrees, which is what the engine-differential tests compare.

   The name catalogue lives in DESIGN.md §3c; the conventional segments:

     core.*      retired-instruction / cycle counters, per run
     mem.*       demand-access totals at the memory port
     l1.* l2.* l3.* dram.*   per-level demand-miss / traffic counters
     pf.<who>.*  per-prefetcher breakdowns, <who> in {sw, l1_nlp, l1_ipp,
                 l2_nlp, mlc_streamer, l2_amp, llc_streamer}
     op.*        per-IR-op attribution (PC -> op -> loop depth) *)

type t = { tbl : (string, int) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

(** [set t name v] registers [name] with value [v], overwriting any
    previous value. *)
let set t name v = Hashtbl.replace t.tbl name v

(** [add t name v] adds [v] to [name]'s value (registering it at [v] if
    absent). *)
let add t name v =
  match Hashtbl.find_opt t.tbl name with
  | Some x -> Hashtbl.replace t.tbl name (x + v)
  | None -> Hashtbl.replace t.tbl name v

let get t name = Hashtbl.find_opt t.tbl name

(** [find t name] is [get] defaulting to 0 — counters that never fired
    read as zero. *)
let find t name = match get t name with Some v -> v | None -> 0

(** [sum_prefix t ?leaf prefix] sums every counter whose name starts
    with [prefix] — and, when [leaf] is given, also ends with
    [".leaf"] — so fleet aggregates over per-shard counters are derived
    rather than maintained:
    [sum_prefix t ~leaf:"ok" "serve.shard."] folds
    [serve.shard.<i>.ok] over every shard. 0 when nothing matches. *)
let sum_prefix t ?leaf prefix =
  let want name =
    String.starts_with ~prefix name
    && (match leaf with
        | None -> true
        | Some l -> String.ends_with ~suffix:("." ^ l) name)
  in
  Hashtbl.fold (fun k v acc -> if want k then acc + v else acc) t.tbl 0

(** [to_assoc t] is the canonical export: counters sorted by name. *)
let to_assoc t =
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) items

let names t = List.map fst (to_assoc t)

let of_assoc items =
  let t = create () in
  List.iter (fun (k, v) -> set t k v) items;
  t

(** [snapshot t] is an immutable copy of [t]'s current counters. *)
let snapshot t = { tbl = Hashtbl.copy t.tbl }

(** [diff ~before ~after] is the per-counter change [after - before],
    name-sorted, dropping counters whose value did not change. Counters
    absent on one side read as 0, so newly-registered counters appear
    with their full value and deleted ones as a negative delta. *)
let diff ~before ~after =
  let names =
    List.sort_uniq String.compare (names before @ names after)
  in
  List.filter_map
    (fun name ->
      let d = find after name - find before name in
      if d = 0 then None else Some (name, d))
    names

(** [to_json t] is a single JSON object, keys in sorted order. *)
let to_json t =
  Jsonu.to_string (Jsonu.Obj (List.map (fun (k, v) -> (k, Jsonu.Int v)) (to_assoc t)))

(** [pp ppf t] prints one [name value] line per counter, sorted. *)
let pp ppf t =
  List.iter
    (fun (k, v) -> Format.fprintf ppf "%-36s %d@\n" k v)
    (to_assoc t)
