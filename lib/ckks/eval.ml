type ct = {
  c0 : Rns_poly.t;
  c1 : Rns_poly.t;
  scale : float;
  mutable digits : (Rns_poly.t * Keys.decomposed) option;
      (* cross-op digit memo: the mod-up decomposition of [c1], tagged with
         the exact [c1] object it was computed from.  Validity is physical
         identity of that tag with the current [c1] — any functional update
         that replaces [c1] makes a carried memo self-invalidating, while
         updates that keep the same [c1] object (e.g. plaintext adds into
         [c0]) keep it live.  The single-word store is atomic in OCaml, so
         a concurrent race costs at worst one redundant (bit-identical)
         recompute, never a wrong result. *)
  mutable noise_est : float;
      (* interval-style upper bound on the relative error, mirroring the
         static model's per-op rules over Halo_cost.Noise_units so runtime
         and static views are directly comparable.  Pure bookkeeping: no
         RNG, no effect on the polynomials. *)
}

let units = Halo_cost.Noise_units.default

let level ct = Rns_poly.level ct.c0
let scale ct = ct.scale
let mk c0 c1 scale = { c0; c1; scale; digits = None; noise_est = 0.0 }
let of_parts ~c0 ~c1 ~scale = mk c0 c1 scale

let noised n ct =
  ct.noise_est <- n;
  ct

let noise_est ct = ct.noise_est
let set_noise_est ct n = ct.noise_est <- n

(* Functional copy keeps the same [c1] object, so a carried digit memo
   stays valid across the inflation. *)
let inflate_noise ct ~by = { ct with noise_est = ct.noise_est +. by }

let digit_cache_enabled =
  ref
    (match Sys.getenv_opt "HALO_DIGIT_CACHE" with
    | Some ("0" | "off" | "false" | "OFF" | "FALSE") -> false
    | _ -> true)

let set_digit_cache on = digit_cache_enabled := on

(* Fetch or compute the digit decomposition of [a.c1].  Reuse is counted in
   the key-set cache statistics; disabling the cache degrades to a fresh
   decomposition per call with bit-identical results (the decomposition is
   a deterministic function of [c1]). *)
let decompose_cached (keys : Keys.t) a =
  if not !digit_cache_enabled then Keys.decompose keys a.c1
  else
    match a.digits with
    | Some (src, dec) when src == a.c1 ->
      Keys.record_digit_hit keys;
      dec
    | _ ->
      let dec = Keys.decompose keys a.c1 in
      a.digits <- Some (a.c1, dec);
      dec

(* Extra values are dropped; missing slots encode as zero. *)
let pad_slots (params : Params.t) values =
  if Array.length values <= params.slots then values else Array.sub values 0 params.slots

let encrypt_sym (keys : Keys.t) ~level values =
  let params = keys.params in
  let values = pad_slots params values in
  let m = Encoding.encode_real params ~level ~scale:params.scale values in
  let a =
    Rns_poly.of_residues
      (Sampler.uniform_residues keys.rng ~n:params.n
         ~moduli:(Array.sub params.moduli 0 level))
  in
  let e =
    Rns_poly.of_centered_coeffs params ~level
      (Sampler.gaussian keys.rng ~n:params.n ~sigma:params.sigma)
  in
  let s = Rns_poly.to_level params ~level keys.s_ntt in
  let c0 = Rns_poly.sub params (Rns_poly.add params m e) (Rns_poly.mul params a s) in
  noised units.enc (mk c0 a params.scale)

let encrypt (keys : Keys.t) ~level values =
  let params = keys.params in
  let values = pad_slots params values in
  let m = Encoding.encode_real params ~level ~scale:params.scale values in
  (* v multiplies both public-key halves: lift it to the NTT domain once. *)
  let v =
    Rns_poly.to_eval params
      (Rns_poly.of_centered_coeffs params ~level (Sampler.ternary keys.rng ~n:params.n))
  in
  let e0 =
    Rns_poly.of_centered_coeffs params ~level
      (Sampler.gaussian keys.rng ~n:params.n ~sigma:params.sigma)
  in
  let e1 =
    Rns_poly.of_centered_coeffs params ~level
      (Sampler.gaussian keys.rng ~n:params.n ~sigma:params.sigma)
  in
  let pk0 = Rns_poly.to_level params ~level keys.pk0_ntt in
  let pk1 = Rns_poly.to_level params ~level keys.pk1_ntt in
  (* m + e0 is exact in the coefficient domain: one lift instead of two. *)
  let c0 = Rns_poly.add params (Rns_poly.mul params v pk0) (Rns_poly.add params m e0) in
  let c1 = Rns_poly.add params (Rns_poly.mul params v pk1) e1 in
  noised units.enc (mk c0 c1 params.scale)

(* The decoder reads the base residue only, so the phase c0 + c1 * s is
   computed at the base prime alone: limbs are independent, and this is
   the first limb of the full-level phase, bit for bit. *)
let decrypt_poly (keys : Keys.t) ct =
  let params = keys.params in
  let base p = Rns_poly.to_level params ~level:1 p in
  Rns_poly.add params (base ct.c0) (Rns_poly.mul params (base ct.c1) (base keys.s_ntt))

let decrypt_complex (keys : Keys.t) ct =
  Encoding.decode keys.params ~scale:ct.scale (decrypt_poly keys ct)

let decrypt (keys : Keys.t) ct =
  Encoding.decode_real keys.params ~scale:ct.scale (decrypt_poly keys ct)

let check_levels name a b =
  if level a <> level b then
    invalid_arg (Printf.sprintf "Eval.%s: level mismatch (%d vs %d)" name (level a) (level b))

let check_scales name a b =
  let rel = Float.abs (a.scale -. b.scale) /. Float.max a.scale b.scale in
  if rel > 1e-2 then
    invalid_arg
      (Printf.sprintf "Eval.%s: scale mismatch (%g vs %g)" name a.scale b.scale)

let addcc (keys : Keys.t) a b =
  check_levels "addcc" a b;
  check_scales "addcc" a b;
  let p = keys.params in
  noised
    (Float.max a.noise_est b.noise_est)
    (mk (Rns_poly.add p a.c0 b.c0) (Rns_poly.add p a.c1 b.c1) a.scale)

let subcc (keys : Keys.t) a b =
  check_levels "subcc" a b;
  check_scales "subcc" a b;
  let p = keys.params in
  noised
    (Float.max a.noise_est b.noise_est)
    (mk (Rns_poly.sub p a.c0 b.c0) (Rns_poly.sub p a.c1 b.c1) a.scale)

(* The plaintext comes from the key set's memo and joins c0 in c0's domain:
   memoized NTT rows for an [Eval] c0, the memoized coefficients embedded
   per limb for a [Coeff] one. *)
let addcp (keys : Keys.t) a values =
  let params = keys.params and l = level a and scale = a.scale in
  let m =
    match Rns_poly.domain a.c0 with
    | Rns_poly.Eval ->
      Rns_poly.of_residues ~domain:Rns_poly.Eval (Keys.plain_eval keys ~scale ~level:l values)
    | Coeff -> Rns_poly.of_centered_coeffs params ~level:l (Keys.plain_centered keys ~scale values)
  in
  { a with c0 = Rns_poly.add params a.c0 m }

let multcc (keys : Keys.t) a b =
  check_levels "multcc" a b;
  let p = keys.params in
  (* Each operand polynomial feeds two products: lift all four to the NTT
     domain once so the tensor is pure pointwise arithmetic. *)
  let a0 = Rns_poly.to_eval p a.c0 and a1 = Rns_poly.to_eval p a.c1 in
  let b0 = Rns_poly.to_eval p b.c0 and b1 = Rns_poly.to_eval p b.c1 in
  let d0 = Rns_poly.mul p a0 b0 in
  let d1 = Rns_poly.add p (Rns_poly.mul p a0 b1) (Rns_poly.mul p a1 b0) in
  let d2 = Rns_poly.mul p a1 b1 in
  let u0, u1 = Keys.key_switch keys (Keys.relin_key keys) d2 in
  noised
    (a.noise_est +. b.noise_est +. units.keyswitch)
    (mk (Rns_poly.add p d0 u0) (Rns_poly.add p d1 u1) (a.scale *. b.scale))

(* [a] times a plaintext encoded at [a]'s level with [scale], lifted once
   for both halves. *)
let mul_plain (keys : Keys.t) a ~scale m =
  let params = keys.params in
  let m = Rns_poly.to_eval params m in
  noised
    (a.noise_est +. units.keyswitch)
    (mk (Rns_poly.mul params a.c0 m) (Rns_poly.mul params a.c1 m) (a.scale *. scale))

let multcp (keys : Keys.t) a values =
  let scale = keys.params.scale in
  mul_plain keys a ~scale
    (Rns_poly.of_residues ~domain:Rns_poly.Eval
       (Keys.plain_eval keys ~scale ~level:(level a) values))

(* The switched automorphism k of [a]: (sigma_k(c0) + u0, u1), where
   (u0, u1) is the key switch of sigma_k(c1).  [u0] is fresh from the key
   switch, so an Eval-domain c0 is permuted straight into it. *)
let switched (keys : Keys.t) a ~k (u0, u1) =
  let params = keys.params in
  let c0 =
    match Rns_poly.domain a.c0 with
    | Rns_poly.Eval ->
      Rns_poly.automorphism_add_into params ~k a.c0 ~into:u0;
      u0
    | Coeff -> Rns_poly.add params (Rns_poly.automorphism params ~k a.c0) u0
  in
  noised (a.noise_est +. units.keyswitch) (mk c0 u1 a.scale)

(* Every rotation key-switches against the digit decomposition of the
   unrotated [c1], with the Galois automorphism fused into the inner
   product as a slot permutation ({!Keys.apply_rotated}) — bit-identical to
   key-switching the rotated polynomial because the whole path is exact
   modular integer arithmetic.  Phrasing single rotations this way lets
   consecutive ops on the same ciphertext share one decomposition through
   the cross-op digit memo, not just members of one hoisted group. *)
let rotate (keys : Keys.t) a ~offset =
  let params = keys.params in
  if offset = 0 then a
  else begin
    let k = Keys.galois_element params ~offset in
    let sk = Keys.rotation_key keys ~offset in
    switched keys a ~k (Keys.apply_rotated keys sk ~k (decompose_cached keys a))
  end

(* Hoisted rotations: one decomposition of [c1] (possibly already memoized
   by an earlier op on this ciphertext) shared by every offset. *)
let rotate_many (keys : Keys.t) a ~offsets =
  let params = keys.params in
  if List.for_all (fun o -> o = 0) offsets then List.map (fun _ -> a) offsets
  else begin
    (* Key fetches stay in offset order: generation is deterministic per
       key, but the LRU accounting observes the access order. *)
    let sks =
      List.map
        (fun offset ->
          if offset = 0 then None else Some (Keys.rotation_key keys ~offset))
        offsets
    in
    let dec = decompose_cached keys a in
    List.map2
      (fun offset sk ->
        match sk with
        | None -> a
        | Some sk ->
          let k = Keys.galois_element params ~offset in
          switched keys a ~k (Keys.apply_rotated keys sk ~k dec))
      offsets sks
  end

let conjugate (keys : Keys.t) a =
  let params = keys.params in
  let k = (2 * params.n) - 1 in
  let sk = Keys.conjugation_key keys in
  switched keys a ~k (Keys.apply_rotated keys sk ~k (decompose_cached keys a))

let multcp_complex (keys : Keys.t) a values =
  let params = keys.params in
  mul_plain keys a ~scale:params.scale
    (Encoding.encode params ~level:(level a) ~scale:params.scale values)

let rescale (keys : Keys.t) a =
  let params = keys.params in
  let dropped = Params.modulus_at params ~level:(level a) in
  noised
    (a.noise_est +. units.rescale)
    (mk
       (Rns_poly.rescale_last params a.c0)
       (Rns_poly.rescale_last params a.c1)
       (a.scale /. float_of_int dropped))

let modswitch (keys : Keys.t) a ~down =
  if down < 0 then invalid_arg "Eval.modswitch: negative";
  let params = keys.params in
  let target = level a - down in
  {
    a with
    c0 = Rns_poly.to_level params ~level:target a.c0;
    c1 = Rns_poly.to_level params ~level:target a.c1;
  }

let negate (keys : Keys.t) a =
  let p = keys.params in
  { a with c0 = Rns_poly.neg p a.c0; c1 = Rns_poly.neg p a.c1 }

let multcp_exact (keys : Keys.t) a values ~target =
  let params = keys.params in
  let l = level a in
  if l < 2 then invalid_arg "Eval.multcp_exact: level below 2";
  let q = float_of_int (Params.modulus_at params ~level:l) in
  let encode_scale = target *. q /. a.scale in
  let r =
    rescale keys
      (mul_plain keys a ~scale:encode_scale
         (Encoding.encode_real params ~level:l ~scale:encode_scale (pad_slots params values)))
  in
  (* Floating bookkeeping can be off by one ulp; pin the target. *)
  { r with scale = target }

let adjust_scale (keys : Keys.t) a ~target =
  multcp_exact keys a (Array.make keys.params.slots 1.0) ~target

(* --- lazy key switching: fused rotate-and-sum --------------------------- *)

let eager_switch_env () =
  match Sys.getenv_opt "HALO_EAGER_SWITCH" with
  | Some ("1" | "on" | "true" | "ON" | "TRUE") -> true
  | _ -> false

(* Fused rotate-and-sum: sum_g coeff_g * rotate(a, o_g), paying the
   mod-down and (with coefficients) the rescale once for the whole group.
   The canonical algebra accumulates every member's key-switch MAC in the
   extended basis (plaintext factors folded into the MAC over Q*P) and the
   members' Q-side parts sigma_g(c0), times m_g when weighted, in one visit
   of each chain position ({!Keys.switch_group}), mods down once, and
   rescales the sum once.

   Lazy mode shares one digit decomposition of [c1] across the group (via
   the cross-op memo); eager mode recomputes it per member, exactly as an
   unfused sequence of rotations would.  Decomposition is a deterministic
   function of [c1] and the extended-basis accumulation is exact modular
   arithmetic, so the two modes are bit-identical — as is any key-cache
   configuration, since evicted keys regenerate deterministically. *)
let rot_sum (keys : Keys.t) ?mode a ~terms =
  let params = keys.params in
  let eager =
    match mode with Some `Eager -> true | Some `Lazy -> false | None -> eager_switch_env ()
  in
  if terms = [] then invalid_arg "Eval.rot_sum: empty term list";
  let with_coeffs = match terms with (_, c) :: _ -> c <> None | [] -> false in
  List.iter
    (fun (_, c) ->
      if (c <> None) <> with_coeffs then
        invalid_arg "Eval.rot_sum: mixed plain and pure terms")
    terms;
  let l = level a in
  if with_coeffs && l < 2 then invalid_arg "Eval.rot_sum: level below 2";
  let has_rotation = List.exists (fun (o, _) -> o <> 0) terms in
  let shared_dec =
    if has_rotation && not eager then Some (decompose_cached keys a) else None
  in
  let term_dec () =
    match shared_dec with Some d -> d | None -> Keys.decompose keys a.c1
  in
  (* Unrotated members need no key switch: their c1 parts add directly,
     and so do their c0 parts when no member rotates. *)
  let q0 = ref None and q1 = ref None in
  let add_into r x =
    match !r with None -> r := Some x | Some y -> r := Some (Rns_poly.add params y x)
  in
  let members =
    List.map
      (fun (offset, coeff) ->
        (* One memoized encoding per diagonal: the first [l] rows are its
           mod-Q evaluation-domain residues, the K special rows scale the
           MAC over Q*P. *)
        let ext =
          Option.map (fun values -> Keys.plain_weight keys ~scale:params.scale ~level:l values) coeff
        in
        let m_q =
          Option.map
            (fun (w : Keys.weight) -> Rns_poly.of_residues ~domain:Rns_poly.Eval (Array.sub w.rows 0 l))
            ext
        in
        if offset = 0 then begin
          let scaled p = match m_q with None -> p | Some m -> Rns_poly.mul params p m in
          if not has_rotation then add_into q0 (scaled a.c0);
          add_into q1 (scaled a.c1);
          { Keys.galois = 1; switch = None; coeff = ext }
        end
        else begin
          let sk = Keys.rotation_key keys ~offset in
          let dec = term_dec () in
          { Keys.galois = Keys.galois_element params ~offset; switch = Some (sk, dec); coeff = ext }
        end)
      terms
  in
  let c0, c1 =
    if has_rotation then begin
      let c0, u1 = Keys.switch_group keys ~c0:(Rns_poly.to_eval params a.c0) members in
      (c0, match !q1 with None -> u1 | Some q -> Rns_poly.add params q u1)
    end
    else (Option.get !q0, Option.get !q1)
  in
  (* Same bound as the static RotSum rule: one key switch if any member
     rotates, plus (for weighted groups) one plaintext multiply's
     key-switch term and the single absorbed rescale. *)
  let est =
    a.noise_est
    +. (if has_rotation then units.keyswitch else 0.0)
    +. if with_coeffs then units.keyswitch +. units.rescale else 0.0
  in
  if with_coeffs then begin
    let dropped = Params.modulus_at params ~level:l in
    noised est
      (mk
         (Rns_poly.rescale_last params c0)
         (Rns_poly.rescale_last params c1)
         (a.scale *. params.scale /. float_of_int dropped))
  end
  else noised est (mk c0 c1 a.scale)
