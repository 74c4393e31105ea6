(** The full memory system: per-core L1s, per-cluster L2s with MSHR pools,
    a shared inclusive L3, one DRAM channel, and the Table-2 hardware
    prefetchers observing the demand stream at their levels.

    Fills install tags immediately and park the completion time in the
    cluster's MSHR pool, so later accesses to an in-flight line wait for
    the fill instead of re-requesting it. Demand misses on a full pool
    stall until the earliest completion; prefetches are dropped instead. *)

type t

(** [create ?obs machine] builds a fresh hierarchy (cores and clusters per
    the machine's topology). [obs] (default {!Asap_obs.Sink.null}) receives
    every observable memory-system event; the hierarchy tests its
    [enabled] flag before constructing any event, so a disabled sink costs
    one branch per access. *)
val create : ?obs:Asap_obs.Sink.t -> Machine.t -> t

(** [release t] hands [t] back once its run is over and its {!stats}
    read: a later {!create} for an equal machine on the same domain may
    clear and return it instead of allocating. [t] must not be used
    after, nor released twice. *)
val release : t -> unit

(** [load t ~core ~pc ~addr ~at] performs a demand load issued at cycle
    [at]; returns the cycle the data is ready. *)
val load : t -> core:int -> pc:int -> addr:int -> at:int -> int

(** [store t ~core ~pc ~addr ~at] performs a write-allocate store; never
    stalls the core, but misses consume fill bandwidth. *)
val store : t -> core:int -> pc:int -> addr:int -> at:int -> unit

(** [prefetch t ~core ~addr ~locality ~at] performs a software prefetch;
    locality maps to the fill level (3-2 into L1, 1 into L2, 0 into L3). *)
val prefetch : t -> core:int -> addr:int -> locality:int -> at:int -> unit

(** Per-prefetcher lifecycle breakdown (one per provenance id, software
    included). *)
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
  st_l2_misses : int;          (** went past L2: L3 hit or DRAM *)
  st_l3_misses : int;
  st_dram_lines : int;
  st_pf : (string * pf_stat) list;
    (** keyed by counter-name slug ("sw", "l1_ipp", ...), provenance order *)
  st_pc_l1_miss : (int * int) list;
    (** load-miss counts by Ir vid (pc ascending, zero counts omitted) *)
  st_pc_l2_miss : (int * int) list;
}

val stats : t -> stats
