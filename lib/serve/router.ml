(* Consistent-hash request routing.

   The fleet routes every request to a home shard by hashing its
   artefact fingerprint onto a ring of virtual nodes: each shard owns
   [vnodes] points on the ring and a fingerprint belongs to the shard
   owning the first point at or clockwise of its own hash. Two
   properties matter here:

   - Determinism: the ring is a pure function of (shards, vnodes) and
     the hash is in-repo FNV-1a, so routing never depends on the host,
     OCaml's [Hashtbl.hash] seed, or process history. The fleet replay
     stays byte-identical at any [--jobs].

   - Stability under resizing: growing the fleet from N to N+1 shards
     only adds the new shard's points; every existing point keeps its
     position, so a fingerprint either stays put or moves to the new
     shard — about 1/(N+1) of the keyspace, instead of the (N-1)/N a
     modulo hash would reshuffle. Tuned-prefetch cache entries keyed by
     fingerprint therefore mostly stay on their warm shard across fleet
     resizes. *)

type t = {
  shards : int;
  points : (int * int) array;  (* (ring point, shard), sorted *)
}

(* FNV-1a, 64-bit, folded to a non-negative OCaml int. Stable across
   hosts and runs (unlike [Hashtbl.hash] on marshalled trees). The raw
   FNV fold alone is not enough here: its final multiply spreads the
   last byte only up to bit ~48, so strings sharing a prefix and
   differing in a trailing counter ("shard:4:0" .. "shard:4:63") keep
   near-identical top bits and clump together on the ring, starving a
   new shard of arc. A 64-bit avalanche finalizer after the fold gives
   every input byte full-width influence. The accumulator is a local
   ref no closure captures, so the native compiler keeps it unboxed. *)
let hash (s : string) : int =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code s.[i])))
        0x100000001b3L
  done;
  let h = Int64.logxor !h (Int64.shift_right_logical !h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  Int64.to_int (Int64.logxor h (Int64.shift_right_logical h 33)) land max_int

let default_vnodes = 64

let create ?(vnodes = default_vnodes) ~shards () =
  if shards < 1 then invalid_arg "Router.create: shards < 1";
  if vnodes < 1 then invalid_arg "Router.create: vnodes < 1";
  let points =
    Array.init (shards * vnodes) (fun i ->
        let s = i / vnodes and r = i mod vnodes in
        (hash (Printf.sprintf "shard:%d:%d" s r), s))
  in
  Array.sort compare points;
  { shards; points }

let shards t = t.shards

let shard_of t key =
  if t.shards = 1 then 0
  else begin
    let h = hash key in
    let n = Array.length t.points in
    (* First point >= h; past the last point wraps to the first. *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
    done;
    snd t.points.(if !lo = n then 0 else !lo)
  end
