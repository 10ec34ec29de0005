type ct = float array
type state = int

let name = "clear"
let create ~slots : state = slots
let slots st = st
let max_level _ = max_int
let level _ _ = 0
let encrypt _ ~level:_ data = data
let decrypt _ ct = ct
let addcc _ = Array.map2 ( +. )
let subcc _ = Array.map2 ( -. )
let addcp _ = Array.map2 ( +. )
let multcc _ = Array.map2 ( *. )
let multcp _ = Array.map2 ( *. )

let rotate _ a ~offset =
  let n = Array.length a in
  let shift = ((offset mod n) + n) mod n in
  Array.init n (fun i -> a.((i + shift) mod n))

let rotate_many st a ~offsets =
  List.map (fun offset -> rotate st a ~offset) offsets

(* Σ coeff ⊙ rot(src), folded in term order: the IEEE add order of the
   unfused add chain, which a pure group keeps in one pass over the
   slots. *)
let rot_sum st a ~terms =
  let term (offset, c) =
    let r = rotate st a ~offset in
    match c with None -> r | Some m -> Array.map2 ( *. ) r m
  in
  match terms with
  | [] -> invalid_arg "Clear_backend.rot_sum: empty term list"
  | _ when List.for_all (fun (_, c) -> c = None) terms ->
    Halo_ckks.Ref_backend.sum_rotations a ~offsets:(List.map fst terms)
  | t :: ts ->
    List.fold_left (fun acc t -> Array.map2 ( +. ) acc (term t)) (term t) ts

let rescale _ a = a
let modswitch _ a ~down:_ = a
let bootstrap _ a ~target:_ = a
let negate _ = Array.map Float.neg
let noise_estimate _ _ = 0.0
let inflate_noise _ a ~by:_ = a
