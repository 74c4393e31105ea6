(* Dense tensors: the non-annotated operands of a linalg.generic
   (the vector c of SpMV, the matrices A and C of SpMM). Row-major. *)

type t = { dims : int array; data : float array }

let create dims =
  let total = Array.fold_left ( * ) 1 dims in
  { dims = Array.copy dims; data = Array.make total 0. }

let init dims f =
  let t = create dims in
  (match Array.length dims with
   | 1 ->
     for i = 0 to dims.(0) - 1 do
       t.data.(i) <- f [| i |]
     done
   | 2 ->
     for i = 0 to dims.(0) - 1 do
       for j = 0 to dims.(1) - 1 do
         t.data.((i * dims.(1)) + j) <- f [| i; j |]
       done
     done
   | _ -> invalid_arg "Dense.init: rank > 2 unsupported");
  t

let get2 t i j = t.data.((i * t.dims.(1)) + j)
let set2 t i j v = t.data.((i * t.dims.(1)) + j) <- v

let copy t = { dims = Array.copy t.dims; data = Array.copy t.data }

let fill t v = Array.fill t.data 0 (Array.length t.data) v

(** [max_abs_diff a b] is the largest |a_i - b_i|; raises on shape
    mismatch. Used by tests to compare kernel outputs to references. *)
let max_abs_diff a b =
  if a.dims <> b.dims then invalid_arg "Dense.max_abs_diff: shape mismatch";
  let m = ref 0. in
  Array.iteri
    (fun i x ->
      let d = Float.abs (x -. b.data.(i)) in
      if d > !m then m := d)
    a.data;
  !m
