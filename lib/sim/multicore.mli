(** Multi-core simulation via effect handlers.

    Each core interprets its slice of the kernel as a fiber that performs
    an effect at every memory event; the scheduler always resumes the fiber
    whose next event is earliest in simulated time, so cores interleave
    deterministically on the shared L2/L3/DRAM resources. This replaces the
    paper's OpenMP dense-outer-loop execution (§4.3). *)

(** [run hier ~core_run ~slices] starts one fiber per slice (static row
    partitioning), each calling [core_run ~slice ~mem] with a memory
    port that suspends the fiber at every access, and interleaves their
    memory events on the shared hierarchy [hier]. Returns per-core
    results. [core_run] is the single-core engine run ({!Exec} passes
    its prepared program), so it must keep its per-run state local. *)
val run :
  Hierarchy.t ->
  core_run:(slice:int * int -> mem:Interp.mem -> Interp.result) ->
  slices:(int * int) array -> Interp.result array
