(** Hardware prefetchers of the Alder Lake E-core (paper Table 2).

    Each prefetcher observes the demand-access stream at its cache level
    and emits fill requests; the hierarchy pushes those through the
    shared MSHR/bandwidth paths, so inaccurate prefetchers genuinely cost
    the resources the paper's §5.1 insight is about.

    The observation path runs on every demand access and is
    allocation-free: {!observe} writes target line addresses into a
    caller-owned scratch buffer (see {!max_requests}) instead of
    returning a request list. Requests fill at the observing unit's own
    {!t.pf_level} and are attributed to its {!t.pf_id}. *)

type level = L1 | L2 | L3

(** {1 Prefetcher ids (accuracy-counter indices)} *)

val n_ids : int

(** [slug_of_id i] is the stable dotted-counter-name component for
    prefetcher [i] (e.g. ["mlc_streamer"] in ["pf.mlc_streamer.issued"]). *)
val slug_of_id : int -> string

(** Upper bound on the lines one observation can request; scratch buffers
    passed as [out] must have at least this length. *)
val max_requests : int

(** A unit's table state. *)
type kind

type t = {
  pf_id : int;
  pf_level : level;            (** where it observes and fills *)
  kind : kind;
}

(** [observe t ~pc ~addr ~line ~hit ~out] feeds one demand access at the
    unit's level ([hit] is the hit/miss outcome there) and writes the
    target line addresses (all non-negative) of any fill requests into
    [out.(0 .. n-1)], returning [n]. *)
val observe :
  t -> pc:int -> addr:int -> line:int -> hit:bool -> out:int array -> int

(** [clear t] forgets everything [t] has observed: the state its
    constructor returns. *)
val clear : t -> unit

(** L1 next-line: on a miss, fetch the following line (inaccurate on
    irregular streams; "Default On", disabled by the paper). *)
val l1_nlp : unit -> t

(** L2 next-line ("Default Off"). *)
val l2_nlp : unit -> t

(** L1 instruction-pointer prefetcher: per-PC stride detection with a
    small stream capacity (the paper observes 2 concurrent streams,
    §3.2.1) and replacement hysteresis. [line_shift] is log2 of the
    line size, as for every unit below that needs it: the IPP strides
    over byte addresses and requests lines. *)
val l1_ipp : ?streams:int -> ?lookahead:int -> line_shift:int -> unit -> t

(** Mid-level-cache streamer (into L2): forward line streams within a
    4 KiB page, fetching 4 lines past the page's high-water mark. *)
val mlc_streamer : line_shift:int -> unit -> t

(** Last-level-cache streamer (into L3). *)
val llc_streamer : line_shift:int -> unit -> t

(** L2 adaptive multipath: fires on repeated line deltas — covers 2-D
    strided walks, pollutes on random streams (disabled for SpMV by the
    paper). *)
val l2_amp : ?degree:int -> unit -> t
