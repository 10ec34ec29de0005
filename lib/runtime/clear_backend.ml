module Slots = Halo_ckks.Slots

type ct = float array
type state = int

let name = "clear"
let create ~slots : state = slots
let slots st = st
let max_level _ = max_int
let level _ _ = 0
let encrypt _ ~level:_ data = data
let decrypt _ ct = ct
let addcc _ = Slots.add
let subcc _ = Slots.sub
let addcp _ = Slots.add
let multcc _ = Slots.mul
let multcp _ = Slots.mul
let rotate _ a ~offset = Slots.rotate a ~offset
let rotate_many _ a ~offsets = List.map (fun offset -> Slots.rotate a ~offset) offsets

(* Σ coeff ⊙ rot(src), folded in term order: the IEEE add order of the
   unfused add chain, which a pure group keeps in one pass per member. *)
let rot_sum _ a ~terms =
  let term (offset, c) =
    let r = Slots.rotate a ~offset in
    match c with None -> r | Some m -> Slots.mul r m
  in
  match terms with
  | [] -> invalid_arg "Clear_backend.rot_sum: empty term list"
  | _ when List.for_all (fun (_, c) -> c = None) terms ->
    Slots.sum_rotations a ~offsets:(List.map fst terms)
  | t :: ts -> List.fold_left (fun acc t -> Slots.add acc (term t)) (term t) ts

let rescale _ a = a
let modswitch _ a ~down:_ = a
let bootstrap _ a ~target:_ = a
let negate _ = Slots.neg
let noise_estimate _ _ = 0.0
let inflate_noise _ a ~by:_ = a
