type ct = {
  data : float array;
  ct_level : int;
  scale_bits : float;
  noise_est : float;
      (* Interval-style upper bound on the relative error, updated by every
         op with the same unit table as the static model
         ({!Halo_cost.Noise_units}).  Never consumes RNG, so threading it
         cannot perturb the noise stream. *)
}

let units = Halo_cost.Noise_units.default

type state = {
  slots : int;
  max_level : int;
  default_scale_bits : float;
  mutable rng : Random.State.t;
      (* mutable so a crash-recovery driver can reinstall a snapshot *)
  enc_noise : float;
  mult_noise : float;
  boot_noise : float;
  rescale_noise : float;
}

let create ?(seed = 0xB00) ?(enc_noise = 1e-7) ?(mult_noise = 1e-8)
    ?(boot_noise = 1e-5) ?(rescale_noise = Float.ldexp 1.0 (-25)) ~slots
    ~max_level ~scale_bits () =
  {
    slots;
    max_level;
    default_scale_bits = float_of_int scale_bits;
    rng = Random.State.make [| seed |];
    enc_noise;
    mult_noise;
    boot_noise;
    rescale_noise;
  }

let name = "ref"
let slots st = st.slots
let max_level st = st.max_level
let level _st ct = ct.ct_level
let rng_state st = Random.State.copy st.rng
let set_rng_state st rng = st.rng <- Random.State.copy rng
let make_ct ?(noise_est = 0.0) ~data ~level ~scale_bits () =
  { data; ct_level = level; scale_bits; noise_est }

let noise_estimate _st ct = ct.noise_est
let inflate_noise _st ct ~by = { ct with noise_est = ct.noise_est +. by }

let fail op ?level fmt =
  Printf.ksprintf
    (fun reason ->
      raise
        (Halo_error.Backend_error
           { site = Halo_error.site ?level ~backend:name op; reason }))
    fmt

let pad st values =
  if Array.length values = st.slots then values
  else begin
    let out = Array.make st.slots 0.0 in
    Array.blit values 0 out 0 (min (Array.length values) st.slots);
    out
  end

let check_level op ct low =
  if ct.ct_level < low then
    fail op ~level:ct.ct_level "level %d below %d" ct.ct_level low

let check_match op a b =
  if a.ct_level <> b.ct_level then
    fail op ~level:a.ct_level "level mismatch (%d vs %d)" a.ct_level b.ct_level;
  if Float.abs (a.scale_bits -. b.scale_bits) > 0.5 then
    fail op ~level:a.ct_level "scale mismatch (%g vs %g bits)" a.scale_bits
      b.scale_bits

let same_slots op x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg (op ^ ": slot counts differ");
  n

(* Noise kernel.  A noisy op adds one Box–Muller Gaussian per slot, from
   two uniform draws [u1], [u2] of [st.rng].  It runs in two steps:
   - draw: the calling domain draws every slot's (u1, u2) in slot order,
     into a per-domain buffer reused across ops;
   - transform: [sqrt (-2 log (u1 + 1e-12)) · cos (2π u2) · σ] and the op's
     own arithmetic run over chunks of [noise_chunk] slots on the domain
     pool.  A slot count that fits in one chunk stays on the caller.
   The draws are exactly those of a per-slot loop, in the same order, and
   each slot evaluates the same float expression from them, so outputs
   and the RNG position do not depend on the pool size or the schedule. *)
let noise_chunk = 256

let draws_key : float array ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [||])

(* [Random.State.float rng 1.0], restated over [Random.State.bits64] so the
   draw loop stores each value unboxed: the top 53 bits of the next 64-bit
   output times 2^-53, redrawn when they are all zero.  This is the
   stdlib's own [rawfloat], and multiplying by a bound of 1.0 is exact, so
   the values and the RNG position are the same. *)
let rec redraw rng =
  let b = Int64.shift_right_logical (Random.State.bits64 rng) 11 in
  if b <> 0L then Int64.to_float b *. 0x1.p-53 else redraw rng

let[@inline] uniform rng =
  let b = Int64.shift_right_logical (Random.State.bits64 rng) 11 in
  if b <> 0L then Int64.to_float b *. 0x1.p-53 else redraw rng

(* Slot i's (u1, u2) at [2i], [2i + 1]. *)
let draw rng n =
  let buf = Domain.DLS.get draws_key in
  if Array.length !buf < 2 * n then buf := Array.create_float (2 * n);
  let u = !buf in
  for i = 0 to n - 1 do
    let u1 = uniform rng in
    Array.unsafe_set u (2 * i) u1;
    Array.unsafe_set u ((2 * i) + 1) (uniform rng)
  done;
  u

let[@inline] gaussian u i sigma =
  let u1 = Array.unsafe_get u (2 * i) +. 1e-12 in
  let u2 = Array.unsafe_get u ((2 * i) + 1) in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) *. sigma

(* [x + g] per slot, or with [~by:y] the relative error of a product,
   [p + |p| g] with [p = x y]. *)
let noisy rng ~sigma ?by x =
  let n = match by with None -> Array.length x | Some y -> same_slots "noisy" x y in
  let u = draw rng n in
  let out = Array.create_float n in
  let chunk c =
    let lo = c * noise_chunk in
    let hi = min n (lo + noise_chunk) - 1 in
    match by with
    | None ->
      for i = lo to hi do
        Array.unsafe_set out i (Array.unsafe_get x i +. gaussian u i sigma)
      done
    | Some y ->
      for i = lo to hi do
        let p = Array.unsafe_get x i *. Array.unsafe_get y i in
        Array.unsafe_set out i (p +. (Float.abs p *. gaussian u i sigma))
      done
  in
  Domain_pool.parallel_for ~n:((n + noise_chunk - 1) / noise_chunk) chunk;
  out

let encrypt st ~level values =
  if level < 1 || level > st.max_level then
    fail "encrypt" ~level "level out of range (max %d)" st.max_level;
  let data = noisy st.rng ~sigma:st.enc_noise (pad st values) in
  {
    data;
    ct_level = level;
    scale_bits = st.default_scale_bits;
    noise_est = units.enc;
  }

let decrypt _st ct = Array.copy ct.data

let addcc _st a b =
  check_match "addcc" a b;
  { a with data = Slots.add a.data b.data; noise_est = Float.max a.noise_est b.noise_est }

let subcc _st a b =
  check_match "subcc" a b;
  { a with data = Slots.sub a.data b.data; noise_est = Float.max a.noise_est b.noise_est }

let addcp st a values =
  check_level "addcp" a 1;
  { a with data = Slots.add a.data (pad st values) }

let multcc st a b =
  (* The paper (section 2.2): multiplication constrains only the operand
     levels; scales multiply. *)
  if a.ct_level <> b.ct_level then
    fail "multcc" ~level:a.ct_level "level mismatch (%d vs %d)" a.ct_level
      b.ct_level;
  check_level "multcc" a 1;
  {
    a with
    data = noisy st.rng ~sigma:st.mult_noise a.data ~by:b.data;
    scale_bits = a.scale_bits +. b.scale_bits;
    noise_est = a.noise_est +. b.noise_est +. units.keyswitch;
  }

let multcp st a values =
  check_level "multcp" a 1;
  {
    a with
    data = noisy st.rng ~sigma:st.mult_noise a.data ~by:(pad st values);
    scale_bits = a.scale_bits +. st.default_scale_bits;
    noise_est = a.noise_est +. units.keyswitch;
  }

let rotate _st a ~offset =
  check_level "rotate" a 1;
  let ks = if offset = 0 then 0.0 else units.keyswitch in
  { a with data = Slots.rotate a.data ~offset; noise_est = a.noise_est +. ks }

(* Cleartext rotations have no shared key-switch work to hoist: the grouped
   form is exactly the sequence of single rotates (which consume no RNG, so
   grouping cannot perturb the noise stream either). *)
let rotate_many st a ~offsets = List.map (fun offset -> rotate st a ~offset) offsets

let rescale st a =
  check_level "rescale" a 2;
  (* Dropping one prime divides the scale by ~2^scale_bits and adds rounding
     error at the scale's resolution. *)
  let data = noisy st.rng ~sigma:st.rescale_noise a.data in
  {
    data;
    ct_level = a.ct_level - 1;
    scale_bits = a.scale_bits -. st.default_scale_bits;
    noise_est = a.noise_est +. units.rescale;
  }

(* Fused rotate-and-sum evaluates the exact unfused sequence — rotations
   (no RNG), then each member's multcp + rescale in term order, then the
   add chain — so the noise-stream draws are identical to the unfused run
   and fused vs. unfused programs stay bit-identical on this backend.  A
   pure group draws nothing, so it is one pass per member over the slots
   ({!Slots.sum_rotations}); its estimate is the fold's: one key switch if
   any member rotates. *)
let rot_sum st a ~terms =
  if terms = [] then fail "rot_sum" ~level:a.ct_level "empty term list";
  if List.for_all (fun (_, c) -> c = None) terms then begin
    check_level "rotate" a 1;
    let offsets = List.map fst terms in
    let ks = if List.exists (fun o -> o <> 0) offsets then units.keyswitch else 0.0 in
    { a with data = Slots.sum_rotations a.data ~offsets; noise_est = a.noise_est +. ks }
  end
  else begin
    let rotated = List.map (fun (o, c) -> (rotate st a ~offset:o, c)) terms in
    let members =
      List.map
        (fun (r, c) ->
          match c with None -> r | Some m -> rescale st (multcp st r m))
        rotated
    in
    match members with
    | [] -> assert false
    | m :: ms -> List.fold_left (addcc st) m ms
  end

let modswitch _st a ~down =
  if down < 0 then fail "modswitch" ~level:a.ct_level "negative drop %d" down;
  check_level "modswitch" a (down + 1);
  { a with ct_level = a.ct_level - down }

let bootstrap st a ~target =
  if target < 1 || target > st.max_level then
    fail "bootstrap" ~level:a.ct_level "target %d out of range (max %d)" target
      st.max_level;
  {
    data = noisy st.rng ~sigma:st.boot_noise a.data;
    ct_level = target;
    scale_bits = st.default_scale_bits;
    noise_est = units.bootstrap;
  }

let negate _st a = { a with data = Slots.neg a.data }
