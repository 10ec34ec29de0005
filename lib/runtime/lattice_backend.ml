(** Adapter exposing the real RNS-CKKS evaluator ({!Halo_ckks.Eval}) through
    the {!Backend.S} interface.  The state is the key material; bootstrap is
    the decrypt–re-encrypt oracle (see the substitution table in DESIGN.md).

    Ciphertext polynomials flowing through this backend are NTT-resident:
    multiplies, rotations and rescales stay in the evaluation domain.  A
    rescale inverse-transforms only the dropped limb, a key switch
    inverse-transforms the limbs it decomposes, and decrypt only the base
    limb (DESIGN.md section 10).  Per-limb
    kernel loops parallelize across [HALO_DOMAINS] OCaml domains; results
    are bit-identical for any pool size, so interpreter replay and the
    resilience checkpoint tests are unaffected by the setting.

    [Eval] reports discipline violations with [Invalid_argument]; the
    adapter converts them into {!Halo_error.Backend_error} so failures on
    either backend carry the same op/level context. *)

open Halo_ckks

type ct = Eval.ct
type state = Keys.t

let name = "lattice"

let typed op ?level f =
  try f ()
  with Invalid_argument reason ->
    raise
      (Halo_error.Backend_error
         { site = Halo_error.site ?level ~backend:name op; reason })

let slots (keys : Keys.t) = keys.params.slots
let max_level (keys : Keys.t) = keys.params.max_level
let level _keys ct = Eval.level ct

let encrypt keys ~level values =
  typed "encrypt" ~level (fun () -> Eval.encrypt keys ~level values)

let decrypt keys ct =
  typed "decrypt" ~level:(Eval.level ct) (fun () -> Eval.decrypt keys ct)

let addcc st a b =
  typed "addcc" ~level:(Eval.level a) (fun () -> Eval.addcc st a b)

let subcc st a b =
  typed "subcc" ~level:(Eval.level a) (fun () -> Eval.subcc st a b)

let addcp st a v =
  typed "addcp" ~level:(Eval.level a) (fun () -> Eval.addcp st a v)

let multcc st a b =
  typed "multcc" ~level:(Eval.level a) (fun () -> Eval.multcc st a b)

let multcp st a v =
  typed "multcp" ~level:(Eval.level a) (fun () -> Eval.multcp st a v)

let rotate keys ct ~offset =
  typed "rotate" ~level:(Eval.level ct) (fun () -> Eval.rotate keys ct ~offset)

let rotate_many keys ct ~offsets =
  typed "rotate_many" ~level:(Eval.level ct) (fun () ->
      Eval.rotate_many keys ct ~offsets)

let rot_sum keys ct ~terms =
  typed "rot_sum" ~level:(Eval.level ct) (fun () -> Eval.rot_sum keys ct ~terms)

let rescale st a =
  typed "rescale" ~level:(Eval.level a) (fun () -> Eval.rescale st a)

let modswitch keys ct ~down =
  typed "modswitch" ~level:(Eval.level ct) (fun () ->
      Eval.modswitch keys ct ~down)

let bootstrap keys ct ~target =
  typed "bootstrap" ~level:(Eval.level ct) (fun () ->
      Bootstrap_oracle.bootstrap keys ct ~target)

let negate st a =
  typed "negate" ~level:(Eval.level a) (fun () -> Eval.negate st a)

let noise_estimate _keys ct = Eval.noise_est ct
let inflate_noise _keys ct ~by = Eval.inflate_noise ct ~by

let fold_cache_stats keys stats =
  let s = Keys.cache_stats keys in
  Stats.record_key_cache stats ~hits:s.Keys.snap_hits ~misses:s.Keys.snap_misses
    ~evictions:s.Keys.snap_evictions ~regens:s.Keys.snap_regenerations
    ~digit_hits:s.Keys.snap_digit_hits
