(* Synthetic sparse matrix generators.

   Stand-ins for the SuiteSparse families the paper evaluates (§4.2): the
   benchmark shapes only depend on structural statistics — row-degree
   distribution, column locality (reuse distance of the dense operand), and
   footprint relative to the caches — which these generators control
   directly. All generation is deterministic in the seed. *)

module Coo = Asap_tensor.Coo

(* Coordinates in generation order, in two int arrays that double when
   full. *)
type entries = { mutable ei : int array; mutable ej : int array;
                 mutable len : int }

let entries () = { ei = Array.make 1024 0; ej = Array.make 1024 0; len = 0 }

let push e i j =
  if e.len = Array.length e.ei then begin
    let grow a =
      let b = Array.make (2 * e.len) 0 in
      Array.blit a 0 b 0 e.len;
      b
    in
    e.ei <- grow e.ei;
    e.ej <- grow e.ej
  end;
  e.ei.(e.len) <- i;
  e.ej.(e.len) <- j;
  e.len <- e.len + 1

(* Elements are stored in reverse generation order, and values are drawn
   after all coordinates, in element order: every seeded matrix keeps the
   elements and RNG draws it has always had. Dedup/sort happens once at
   the end; duplicate coordinates are summed by [Coo.sorted_dedup] inside
   [Storage.pack], so generators may emit collisions freely. *)
let of_rowcols ~rows ~cols e rng =
  let n = e.len in
  let rev a = Array.init n (fun k -> a.(n - 1 - k)) in
  let vals = Array.init n (fun _ -> 0.5 +. Rng.float rng) in
  Coo.create ~dims:[| rows; cols |] ~crd:[| rev e.ei; rev e.ej |] ~vals

(** Uniform random matrix: every non-zero position independent — the worst
    case for locality (GAP-urand style). *)
let uniform ~seed ~rows ~cols ~nnz () =
  let rng = Rng.create seed in
  let e = entries () in
  for _ = 1 to nnz do
    (* The column is drawn before the row. *)
    let j = Rng.int rng cols in
    let i = Rng.int rng rows in
    push e i j
  done;
  of_rowcols ~rows ~cols e rng

(** Power-law graph adjacency (SNAP/LAW/GAP style): row degrees follow a
    bounded Pareto with exponent [alpha]; a fraction [locality] of the
    columns are drawn near the diagonal (web-graph clustering), the rest
    uniformly. Low [alpha] gives the heavy skew of twitter-like graphs. *)
let power_law ~seed ~rows ~cols ~avg_deg ~alpha ?(locality = 0.0)
    ?(max_deg_frac = 0.01) () =
  let rng = Rng.create seed in
  let x_max = max 4 (int_of_float (float_of_int cols *. max_deg_frac)) in
  let e = entries () in
  (* Scale sampled degrees so the expected average matches avg_deg. *)
  let sample () = Rng.power_law rng ~alpha ~x_min:1 ~x_max in
  let probe = Array.init 1024 (fun _ -> sample ()) in
  let probe_mean =
    float_of_int (Array.fold_left ( + ) 0 probe) /. 1024.
  in
  let scale = float_of_int avg_deg /. probe_mean in
  for i = 0 to rows - 1 do
    let d =
      max 1 (int_of_float (Float.round (float_of_int (sample ()) *. scale)))
    in
    for _ = 1 to min d x_max do
      let j =
        if Rng.float rng < locality then begin
          let w = max 16 (cols / 64) in
          let base = i * cols / rows in
          let off = Rng.int rng (2 * w) - w in
          let j = base + off in
          if j < 0 then j + cols else if j >= cols then j - cols else j
        end
        else Rng.int rng cols
      in
      push e i j
    done
  done;
  of_rowcols ~rows ~cols e rng

(** Banded matrix: [band] diagonals around the main one — structured,
    cache-friendly (the "Others" bucket). *)
let banded ~seed ~n ~band () =
  let rng = Rng.create seed in
  let e = entries () in
  for i = 0 to n - 1 do
    for o = -band to band do
      let j = i + o in
      if j >= 0 && j < n then push e i j
    done
  done;
  of_rowcols ~rows:n ~cols:n e rng

(** 5-point 2-D stencil on a [side] x [side] grid (PDE discretisation). *)
let stencil_2d ~seed ~side () =
  let rng = Rng.create seed in
  let n = side * side in
  let idx x y = (x * side) + y in
  let e = entries () in
  for x = 0 to side - 1 do
    for y = 0 to side - 1 do
      let i = idx x y in
      push e i i;
      if x > 0 then push e i (idx (x - 1) y);
      if x < side - 1 then push e i (idx (x + 1) y);
      if y > 0 then push e i (idx x (y - 1));
      if y < side - 1 then push e i (idx x (y + 1))
    done
  done;
  of_rowcols ~rows:n ~cols:n e rng

(** 7-point 3-D stencil on a [side]^3 grid. *)
let stencil_3d ~seed ~side () =
  let rng = Rng.create seed in
  let n = side * side * side in
  let idx x y z = (((x * side) + y) * side) + z in
  let e = entries () in
  for x = 0 to side - 1 do
    for y = 0 to side - 1 do
      for z = 0 to side - 1 do
        let i = idx x y z in
        let push j = push e i j in
        push i;
        if x > 0 then push (idx (x - 1) y z);
        if x < side - 1 then push (idx (x + 1) y z);
        if y > 0 then push (idx x (y - 1) z);
        if y < side - 1 then push (idx x (y + 1) z);
        if z > 0 then push (idx x y (z - 1));
        if z < side - 1 then push (idx x y (z + 1))
      done
    done
  done;
  of_rowcols ~rows:n ~cols:n e rng

(** FEM-like block-banded matrix: dense [blk] x [blk] element blocks along
    a band (Janna-collection style: large rows, strong locality). *)
let fem_blocks ~seed ~nblocks ~blk ~reach () =
  let rng = Rng.create seed in
  let n = nblocks * blk in
  let e = entries () in
  for b = 0 to nblocks - 1 do
    for nb = max 0 (b - reach) to min (nblocks - 1) (b + reach) do
      for r = 0 to blk - 1 do
        for c = 0 to blk - 1 do
          push e ((b * blk) + r) ((nb * blk) + c)
        done
      done
    done
  done;
  of_rowcols ~rows:n ~cols:n e rng

(** Road-network-like graph: constant small degree, strongly local columns
    with occasional long-range links (DIMACS10 street networks). *)
let road ~seed ~n ~deg () =
  let rng = Rng.create seed in
  let e = entries () in
  for i = 0 to n - 1 do
    for _ = 1 to deg do
      let j =
        if Rng.float rng < 0.95 then begin
          let off = Rng.int rng 64 - 32 in
          let j = i + off in
          if j < 0 then j + n else if j >= n then j - n else j
        end
        else Rng.int rng n
      in
      push e i j
    done
  done;
  of_rowcols ~rows:n ~cols:n e rng

(** Uniform random rank-3 tensor (for CSF / tensor-times-vector runs). *)
let tensor3 ~seed ~dims ~nnz () =
  if Array.length dims <> 3 then invalid_arg "Generate.tensor3: need 3 dims";
  let rng = Rng.create seed in
  let crd = Array.init 3 (fun _ -> Array.make nnz 0) in
  let vals = Array.make nnz 0. in
  for k = 0 to nnz - 1 do
    (* Per element, the last dimension is drawn first. *)
    for d = 2 downto 0 do crd.(d).(k) <- Rng.int rng dims.(d) done;
    vals.(k) <- 0.5 +. Rng.float rng
  done;
  Coo.create ~dims ~crd ~vals

(** Heavy-tailed trace matrix (MAWI packet traces): a handful of huge rows
    (backbone hosts) over a sea of tiny ones. *)
let heavy_tail ~seed ~rows ~cols ~nnz ~hubs () =
  let rng = Rng.create seed in
  let e = entries () in
  let hub_nnz = nnz / 2 in
  for _ = 1 to hub_nnz do
    let i = Rng.int rng hubs in
    push e i (Rng.int rng cols)
  done;
  for _ = 1 to nnz - hub_nnz do
    let j = Rng.int rng cols in
    let i = hubs + Rng.int rng (rows - hubs) in
    push e i j
  done;
  of_rowcols ~rows ~cols e rng

(* --- Spec-string constructor ---------------------------------------- *)

(* One textual name per generator family, so matrices can be carried by
   value in CLI flags, serve request files and benchmark manifests
   instead of by .mtx path. The grammar is "kind:arg,arg[@seed]"; every
   spec is deterministic, so equal specs name equal matrices — the serve
   cache fingerprints rely on that. *)

let spec_grammar =
  "powerlaw:<n>,<deg> | uniform:<n>,<nnz> | banded:<n>,<band> | \
   road:<n>,<deg> | stencil2d:<side> | stencil3d:<side> | \
   fem:<nblocks>,<blk>,<reach> | heavytail:<rows>,<nnz>,<hubs> | \
   tensor3:<d1>,<d2>,<d3>,<nnz>  (each optionally @<seed>, default 1)"

(** [of_spec s] builds the matrix named by spec string [s]; [Error]
    carries the expected grammar. *)
let of_spec (spec : string) : (Coo.t, string) result =
  let usage kind = Error ("bad " ^ kind ^ " spec; expected " ^ spec_grammar) in
  let spec, seed =
    match String.split_on_char '@' spec with
    | [ s ] -> (s, Ok 1)
    | [ s; seed ] ->
      (s, match int_of_string_opt seed with
          | Some n -> Ok n
          | None -> Error ("bad seed in spec: " ^ seed))
    | _ -> (spec, Error ("bad spec: " ^ spec))
  in
  match seed with
  | Error e -> Error e
  | Ok seed ->
    (match String.split_on_char ':' spec with
     | [ kind; rest ] ->
       let args = List.map int_of_string_opt (String.split_on_char ',' rest) in
       let all_ok = List.for_all Option.is_some args in
       if not all_ok then usage kind
       else
         (match (kind, List.map Option.get args) with
          | "powerlaw", [ n; d ] ->
            Ok (power_law ~seed ~rows:n ~cols:n ~avg_deg:d ~alpha:2.0 ())
          | "uniform", [ n; nnz ] -> Ok (uniform ~seed ~rows:n ~cols:n ~nnz ())
          | "banded", [ n; band ] -> Ok (banded ~seed ~n ~band ())
          | "road", [ n; deg ] -> Ok (road ~seed ~n ~deg ())
          | "stencil2d", [ side ] -> Ok (stencil_2d ~seed ~side ())
          | "stencil3d", [ side ] -> Ok (stencil_3d ~seed ~side ())
          | "fem", [ nblocks; blk; reach ] ->
            Ok (fem_blocks ~seed ~nblocks ~blk ~reach ())
          | "heavytail", [ rows; nnz; hubs ] ->
            Ok (heavy_tail ~seed ~rows ~cols:rows ~nnz ~hubs ())
          | "tensor3", [ d1; d2; d3; nnz ] ->
            Ok (tensor3 ~seed ~dims:[| d1; d2; d3 |] ~nnz ())
          | _ -> usage kind)
     | _ -> Error ("unknown generator spec: " ^ spec ^ "; expected "
                   ^ spec_grammar))
