(* Kernel microbenchmark: seed kernels vs the Shoup / NTT-resident layer.

   [Ref] below is a frozen copy of the pre-optimization kernels (division
   per butterfly, psi-twist + bit-reversal cyclic NTT, Fermat-inverse
   rescale, multiply-per-index automorphism) so the comparison survives
   further changes to the library, plus the split-Shoup reducer and the
   per-source base conversion that hardware [mod] and the one-pass
   conversion replaced, the reference backend's per-slot noise path
   that its draw/transform kernel replaced, the cleartext backend's
   polymorphic slot ops that the shared {!Slots} kernels replaced and
   CSE's [%h] constant key; the key switch is compared
   with a naive hybrid reference (hardware [mod] per step, constants
   recomputed).
   Every op asserts bit-identity between the two implementations on the
   same inputs before timing; the process exits nonzero if any assertion
   fails.  Rotation-key generation has no frozen copy: its row times the
   library at pool 1 ([Domain_pool.sequentially], the "ref" column) and at
   the current pool size, and asserts that both build the same keys.  Each
   key-switch chain also reports the exact bytes of one switching key.
   Results go to stdout and, with [--json PATH], to a halo-bench-kernels/v1
   JSON report, which names the host's CPU and core count. *)

open Halo_ckks

(* ---------------------------------------------------------------- *)
(* Frozen seed kernels.                                              *)
(* ---------------------------------------------------------------- *)

module Ref = struct
  type ctx = {
    q : int;
    n : int;
    psi_pows : int array;
    psi_inv_pows : int array;
    omega_pows : int array;
    omega_inv_pows : int array;
    n_inv : int;
  }

  let powers ~m base count =
    let a = Array.make count 1 in
    for i = 1 to count - 1 do
      a.(i) <- Modarith.mul ~m a.(i - 1) base
    done;
    a

  let make_ctx ~q ~n =
    let psi = Primes.primitive_root_2n ~q ~n in
    let psi_inv = Modarith.inv ~m:q psi in
    let omega = Modarith.mul ~m:q psi psi in
    let omega_inv = Modarith.inv ~m:q omega in
    {
      q;
      n;
      psi_pows = powers ~m:q psi n;
      psi_inv_pows = powers ~m:q psi_inv n;
      omega_pows = powers ~m:q omega n;
      omega_inv_pows = powers ~m:q omega_inv n;
      n_inv = Modarith.inv ~m:q n;
    }

  let bit_reverse_permute a =
    let n = Array.length a in
    let j = ref 0 in
    for i = 0 to n - 2 do
      if i < !j then begin
        let t = a.(i) in
        a.(i) <- a.(!j);
        a.(!j) <- t
      end;
      let bit = ref (n lsr 1) in
      while !j land !bit <> 0 do
        j := !j lxor !bit;
        bit := !bit lsr 1
      done;
      j := !j lor !bit
    done

  let cyclic ctx pows a =
    let m = ctx.q and n = ctx.n in
    bit_reverse_permute a;
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      let stride = n / !len in
      let i = ref 0 in
      while !i < n do
        for k = 0 to half - 1 do
          let w = pows.(k * stride) in
          let u = a.(!i + k) in
          let v = Modarith.mul ~m a.(!i + k + half) w in
          a.(!i + k) <- Modarith.add ~m u v;
          a.(!i + k + half) <- Modarith.sub ~m u v
        done;
        i := !i + !len
      done;
      len := !len * 2
    done

  let forward ctx coeffs =
    let m = ctx.q in
    let a = Array.mapi (fun i c -> Modarith.mul ~m c ctx.psi_pows.(i)) coeffs in
    cyclic ctx ctx.omega_pows a;
    a

  let inverse ctx values =
    let m = ctx.q in
    let a = Array.copy values in
    cyclic ctx ctx.omega_inv_pows a;
    Array.mapi
      (fun i c ->
        Modarith.mul ~m (Modarith.mul ~m c ctx.psi_inv_pows.(i)) ctx.n_inv)
      a

  let negacyclic_mul ctx a b =
    let m = ctx.q in
    let fa = forward ctx a and fb = forward ctx b in
    let prod = Array.init ctx.n (fun i -> Modarith.mul ~m fa.(i) fb.(i)) in
    inverse ctx prod

  (* Seed rescale: Fermat inverse recomputed on every call. *)
  let rescale_last ~moduli ~n res =
    let lvl = Array.length res in
    let last_idx = lvl - 1 in
    let ql = moduli.(last_idx) in
    let last = res.(last_idx) in
    Array.init (lvl - 1) (fun i ->
        let q = moduli.(i) in
        let ql_inv = Modarith.inv ~m:q (ql mod q) in
        Array.init n (fun j ->
            let rep = Modarith.center ~m:ql last.(j) in
            let diff = Modarith.sub ~m:q res.(i).(j) (Modarith.reduce ~m:q rep) in
            Modarith.mul ~m:q diff ql_inv))

  (* Seed automorphism: j * k mod 2n per coefficient. *)
  let automorphism ~moduli ~n ~k res =
    let two_n = 2 * n in
    let apply q r =
      let out = Array.make n 0 in
      for j = 0 to n - 1 do
        let pos = j * k mod two_n in
        if pos < n then out.(pos) <- Modarith.add ~m:q out.(pos) r.(j)
        else out.(pos - n) <- Modarith.sub ~m:q out.(pos - n) r.(j)
      done;
      out
    in
    Array.mapi (fun i r -> apply moduli.(i) r) res

  (* Naive hybrid key switch (decompose + apply): the semantics of
     [Keys.key_switch] spelled out with a hardware [mod] per step and every
     base-conversion constant recomputed from the primes.  Digits of
     [alpha] primes are lifted by a centered fast base conversion, the MAC
     fully reduces after every multiply-add, and ModDown converts the
     special residues centered and divides by P, all in the coefficient
     domain. *)
  let key_switch (params : Params.t) ~k0 ~k1 (d : Rns_poly.t) =
    let n = params.n and lq = params.max_level and alpha = params.alpha in
    let kk = Array.length params.specials in
    let chain_ntt t = Params.ntt_at params ~idx:t in
    let chain_q t = Ntt.q (chain_ntt t) in
    let res = (Rns_poly.to_coeff params d).res in
    let l = Array.length res in
    let positions = Array.init (l + kk) (fun pos -> if pos < l then pos else lq + pos - l) in
    let np = Array.length positions in
    let prod ~m a = Array.fold_left (fun acc q -> Modarith.mul ~m acc (q mod m)) 1 a in
    let without a i = Array.of_list (List.filteri (fun i' _ -> i' <> i) (Array.to_list a)) in
    let convert ~src xs m =
      let out = Array.make n 0 in
      Array.iteri
        (fun i b ->
          let hat_inv = Modarith.inv ~m:b (prod ~m:b (without src i)) in
          let hat_m = prod ~m (without src i) in
          for j = 0 to n - 1 do
            let y = Modarith.center ~m:b (Modarith.mul ~m:b xs.(i).(j) hat_inv) in
            out.(j) <- Modarith.add ~m out.(j) (Modarith.mul ~m (Modarith.reduce ~m y) hat_m)
          done)
        src;
      out
    in
    let beta = (l + alpha - 1) / alpha in
    let digits =
      Array.map
        (fun t ->
          Array.init beta (fun j ->
              let own = Array.init (min alpha (l - (j * alpha))) (fun i -> (j * alpha) + i) in
              let a =
                convert
                  ~src:(Array.map (fun i -> params.moduli.(i)) own)
                  (Array.map (fun i -> res.(i)) own)
                  (chain_q t)
              in
              Ntt.forward_in_place (chain_ntt t) a;
              a))
        positions
    in
    let mac kh =
      Array.init np (fun pos ->
          let t = positions.(pos) in
          let q = chain_q t in
          let a = Array.make n 0 in
          for i = 0 to beta - 1 do
            for j = 0 to n - 1 do
              a.(j) <- Modarith.add ~m:q a.(j) (Modarith.mul ~m:q digits.(pos).(i).(j) kh.(i).(t).(j))
            done
          done;
          Ntt.inverse_in_place (chain_ntt t) a;
          a)
    in
    let mod_down u =
      let su = Array.sub u l kk in
      Array.init l (fun t ->
          let q = params.moduli.(t) in
          let corr = convert ~src:params.specials su q in
          let p_inv = Modarith.inv ~m:q (prod ~m:q params.specials) in
          Array.init n (fun j -> Modarith.mul ~m:q (Modarith.sub ~m:q u.(t).(j) corr.(j)) p_inv))
    in
    (mod_down (mac k0), mod_down (mac k1))

  (* Boxed encoder: [Complex.t] FFT with the twiddle recurrence re-run per
     block, [cos]/[sin] of every twist factor per call, and hardware [mod]
     embedding, one limb after another. *)
  let fft_transform ~sign a =
    let n = Array.length a in
    bit_reverse_permute a;
    let len = ref 2 in
    while !len <= n do
      let ang = sign *. 2.0 *. Float.pi /. float_of_int !len in
      let wlen = { Complex.re = cos ang; im = sin ang } in
      let half = !len / 2 in
      let i = ref 0 in
      while !i < n do
        let w = ref Complex.one in
        for k = 0 to half - 1 do
          let u = a.(!i + k) in
          let v = Complex.mul a.(!i + k + half) !w in
          a.(!i + k) <- Complex.add u v;
          a.(!i + k + half) <- Complex.sub u v;
          w := Complex.mul !w wlen
        done;
        i := !i + !len
      done;
      len := !len * 2
    done

  let rot_group (params : Params.t) =
    let g = Array.make params.slots 1 in
    for j = 1 to params.slots - 1 do
      g.(j) <- g.(j - 1) * 5 mod (2 * params.n)
    done;
    g

  let zeta_pow (params : Params.t) k =
    let ang = Float.pi *. float_of_int k /. float_of_int params.n in
    { Complex.re = cos ang; im = sin ang }

  let encode_real_centered (params : Params.t) ~scale values =
    let n = params.n and group = rot_group params in
    let evals = Array.make n Complex.zero in
    for j = 0 to params.slots - 1 do
      let v = if j < Array.length values then values.(j) else 0.0 in
      let scaled = { Complex.re = v *. scale; im = 0.0 *. scale } in
      let t = (group.(j) - 1) / 2 in
      evals.(t) <- scaled;
      evals.(n - 1 - t) <- Complex.conj scaled
    done;
    fft_transform ~sign:(-1.0) evals;
    Array.init n (fun k ->
        let b =
          { Complex.re = evals.(k).re /. float_of_int n; im = evals.(k).im /. float_of_int n }
        in
        int_of_float (Float.round (Complex.mul b (zeta_pow params (-k))).re))

  let decode (params : Params.t) ~scale poly =
    let n = params.n in
    let coeffs = Rns_poly.centered_coeffs params poly in
    let twisted =
      Array.init n (fun k ->
          Complex.mul { Complex.re = float_of_int coeffs.(k); im = 0.0 } (zeta_pow params k))
    in
    fft_transform ~sign:1.0 twisted;
    let inv_n = 1.0 /. float_of_int n in
    let twisted =
      Array.map (fun (c : Complex.t) -> { Complex.re = c.re *. inv_n; im = c.im *. inv_n }) twisted
    in
    let group = rot_group params in
    Array.init params.slots (fun j ->
        let v = twisted.((group.(j) - 1) / 2) in
        { Complex.re = v.re *. float_of_int n /. scale; im = v.im *. float_of_int n /. scale })

  let of_centered_coeffs ~moduli ~level coeffs =
    Array.init level (fun i -> Array.map (fun c -> Modarith.reduce ~m:moduli.(i) c) coeffs)

  (* The split-Shoup reducer the key-switch kernels and pointwise products
     used before they reduced by hardware [mod]: for 0 <= x < 2^62 split
     x = hi * 2^31 + lo and reduce each half as a Shoup product -- hi by
     r31 = 2^31 mod q, lo by 1 -- then two masked subtractions. *)
  type reducer = { rq : int; r31 : int; r31_s : int; one_s : int }

  let reducer q =
    let r31 = (1 lsl 31) mod q in
    { rq = q; r31; r31_s = Modarith.shoup ~m:q r31; one_s = Modarith.shoup ~m:q 1 }

  let[@inline] reduce62 { rq = q; r31; r31_s; one_s } x =
    let hi = x lsr 31 and lo = x land ((1 lsl 31) - 1) in
    let r =
      (hi * r31) - (((hi * r31_s) lsr 31) * q) + lo - (((lo * one_s) lsr 31) * q) - (2 * q)
    in
    let r = r + ((2 * q) land (r asr 62)) - q in
    r + (q land (r asr 62))

  (* The per-source conversion loop: one read-modify-write pass over [dst]
     per source, each term a Shoup product left in [0, 2m) plus a masked
     centering correction (-B mod m), closed by [reduce62]. *)
  let convert (basis : Params.basis) ~m ys t dst =
    let n = Array.length dst in
    let neg = basis.neg_prod.(t) in
    Array.fill dst 0 n 0;
    Array.iteri
      (fun i y ->
        let half = basis.src_q.(i) / 2 in
        let w = basis.hat.(t).(i) in
        let ws = Modarith.shoup ~m w in
        for j = 0 to n - 1 do
          let yj = Array.unsafe_get y j in
          Array.unsafe_set dst j
            (Array.unsafe_get dst j + (yj * w)
            - (((yj * ws) lsr 31) * m)
            + (neg land ((half - yj) asr 62)))
        done)
      ys;
    let red = reducer m in
    for j = 0 to n - 1 do
      Array.unsafe_set dst j (reduce62 red (Array.unsafe_get dst j))
    done

  (* The reference backend's noisy [multcp] before the draw/transform
     kernel: one Box–Muller Gaussian per slot, drawn and transformed in a
     closure called by [Array.map2]. *)
  let gaussian rng sigma =
    let u1 = Random.State.float rng 1.0 +. 1e-12 in
    let u2 = Random.State.float rng 1.0 in
    sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) *. sigma

  let multcp_noise rng ~sigma x y =
    let noisy v = v +. (Float.abs v *. gaussian rng sigma) in
    Array.map2 (fun x y -> noisy (x *. y)) x y

  (* The cleartext backend's ops before the shared slot kernels: the
     polymorphic [Array.map2] / [Array.init], a closure call and a boxed
     float per slot. *)
  let clear_add = Array.map2 ( +. )
  let clear_mul = Array.map2 ( *. )

  let clear_rotate a ~offset =
    let n = Array.length a in
    let shift = ((offset mod n) + n) mod n in
    Array.init n (fun i -> a.((i + shift) mod n))

  (* CSE's constant key before the bit key: the [%h] text of every
     element, digested. *)
  let cse_key = function
    | Halo.Ir.Splat x -> Printf.sprintf "s%h" x
    | Halo.Ir.Vector xs ->
      let buf = Buffer.create (Array.length xs * 8) in
      Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf "%h," x)) xs;
      Digest.string (Buffer.contents buf)
end

(* A float-quotient Barrett step, the candidate reducer that neither the
   library nor [Ref] uses: the quotient estimate from one float multiply is
   off by at most one either way for x < 2^62 and q < 2^31, so two masked
   corrections finish it. *)
let[@inline] barrett_reduce ~q ~qinv x =
  let r = x - (int_of_float (Float.of_int x *. qinv) * q) in
  let r = r + (q land (r asr 62)) - q in
  r + (q land (r asr 62))

(* ---------------------------------------------------------------- *)
(* Harness.                                                          *)
(* ---------------------------------------------------------------- *)

type result = {
  op : string;
  rn : int;
  limbs : int;
  ns : float;
  ref_ns : float;
  identical : bool;
}

(* One switching key's exact heap footprint on a key-switch chain. *)
type key_size = { kn : int; klevels : int; kdigits : int; kbytes : int }

(* Every measurement starts from a compacted heap, so a row's time does not
   depend on the garbage the rows before it left. *)
let time_ns ~min_time f =
  Gc.compact ();
  ignore (Sys.opaque_identity (f ()));
  let rec go iters =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time || iters >= 1 lsl 22 then dt *. 1e9 /. float_of_int iters
    else go (iters * 4)
  in
  go 1

let print_result r =
  Printf.printf "%-18s n=%-5d limbs=%-2d  ref %10.0f ns/op  new %10.0f ns/op  %5.2fx  %s\n%!"
    r.op r.rn r.limbs r.ref_ns r.ns (r.ref_ns /. r.ns)
    (if r.identical then "bit-identical" else "MISMATCH")

let rand_vec st ~n ~q = Array.init n (fun _ -> Random.State.full_int st q)

let arrays_equal a b =
  Array.length a = Array.length b && Array.for_all2 ( = ) a b

let residues_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> arrays_equal x y) a b

(* The optimized transform emits the evaluations in another order than the
   seed's (bit-reversed, twist merged in).  Transforming the monomial X
   under both reads the order off: each slot holds a distinct odd power of
   psi.  [slot_map.(i)] is the seed index of the optimized slot i. *)
let slot_map ref_ctx new_ctx =
  let n = Ntt.n new_ctx in
  let x = Array.init n (fun i -> if i = 1 then 1 else 0) in
  let seed_index = Hashtbl.create n in
  Array.iteri (fun k v -> Hashtbl.replace seed_index v k) (Ref.forward ref_ctx x);
  Array.map (Hashtbl.find seed_index) (Ntt.forward new_ctx x)

(* Both roundtrips are exact, and -- forward -- the seed and optimized
   transforms of [v] agree slot for slot under the map, or -- inverse --
   [v] read as an evaluation vector through the map comes back to the same
   coefficients from both. *)
let ntt_identical ~inverse ref_ctx new_ctx v =
  let map = slot_map ref_ctx new_ctx in
  arrays_equal (Ref.inverse ref_ctx (Ref.forward ref_ctx v)) v
  && arrays_equal (Ntt.inverse new_ctx (Ntt.forward new_ctx v)) v
  &&
  if inverse then begin
    let seed_order = Array.make (Array.length v) 0 in
    Array.iteri (fun i k -> seed_order.(k) <- v.(i)) map;
    arrays_equal (Ntt.inverse new_ctx v) (Ref.inverse ref_ctx seed_order)
  end
  else
    let f = Ref.forward ref_ctx v in
    arrays_equal (Ntt.forward new_ctx v) (Array.map (fun k -> f.(k)) map)

let bench_size ~min_time ~limbs ~ks_max ~ks_levels log_n =
  let params = Params.make ~log_n ~max_level:limbs ~base_bits:31 ~scale_bits:27 () in
  let n = params.n in
  let q = params.moduli.(0) in
  let st = Random.State.make [| 0xbe2c4; log_n |] in
  let new_ctx = Params.ntt_at params ~idx:0 in
  let ref_ctx = Ref.make_ctx ~q ~n in
  let ref_ctxs = Array.init limbs (fun i -> Ref.make_ctx ~q:params.moduli.(i) ~n) in
  let a1 = rand_vec st ~n ~q and b1 = rand_vec st ~n ~q in
  let res () = Array.init limbs (fun i -> rand_vec st ~n ~q:params.moduli.(i)) in
  let pa = Rns_poly.of_residues (res ()) and pb = Rns_poly.of_residues (res ()) in
  let pa_eval = Rns_poly.to_eval params pa and pb_eval = Rns_poly.to_eval params pb in
  let k = 5 mod (2 * n) in
  let out = ref [] in
  let record op ~limbs ~identical ~ref_f ~new_f =
    let r =
      {
        op;
        rn = n;
        limbs;
        ns = time_ns ~min_time new_f;
        ref_ns = time_ns ~min_time ref_f;
        identical;
      }
    in
    print_result r;
    out := r :: !out
  in
  let ntt_row op ~inverse ref_ctx new_ctx v =
    let scratch = Array.copy v in
    record op ~limbs:1
      ~identical:(ntt_identical ~inverse ref_ctx new_ctx v)
      ~ref_f:(fun () -> (if inverse then Ref.inverse else Ref.forward) ref_ctx v)
      ~new_f:(fun () ->
        (if inverse then Ntt.inverse_in_place else Ntt.forward_in_place) new_ctx scratch)
  in
  (* NTT on the 31-bit base prime: the fully reduced kernels. *)
  ntt_row "ntt_forward" ~inverse:false ref_ctx new_ctx a1;
  (* NTT on a 27-bit scale prime: the lazy radix-4 kernels, which run most
     transforms of a key switch. *)
  if limbs > 1 then begin
    let q1 = params.moduli.(1) in
    let ctx1 = Params.ntt_at params ~idx:1 and ref1 = Ref.make_ctx ~q:q1 ~n in
    let v = rand_vec st ~n ~q:q1 in
    ntt_row "ntt_forward_scale" ~inverse:false ref1 ctx1 v;
    ntt_row "ntt_inverse_scale" ~inverse:true ref1 ctx1 v
  end;
  (* Negacyclic multiply, coefficients in / coefficients out: the
     acceptance-criterion kernel. *)
  record "negacyclic_mul" ~limbs:1
    ~identical:
      (arrays_equal (Ref.negacyclic_mul ref_ctx a1 b1) (Ntt.negacyclic_mul new_ctx a1 b1))
    ~ref_f:(fun () -> Ref.negacyclic_mul ref_ctx a1 b1)
    ~new_f:(fun () -> Ntt.negacyclic_mul new_ctx a1 b1);
  (* Full-chain RNS multiply with NTT-resident operands, as in a chained
     homomorphic pipeline, vs the seed's per-limb transform-multiply. *)
  let ref_mul () =
    Array.init limbs (fun i ->
        Ref.negacyclic_mul ref_ctxs.(i) (pa : Rns_poly.t).res.(i) (pb : Rns_poly.t).res.(i))
  in
  record "rns_mul_resident" ~limbs
    ~identical:
      (residues_equal
         (Rns_poly.to_coeff params (Rns_poly.mul params pa_eval pb_eval)).res
         (ref_mul ()))
    ~ref_f:ref_mul
    ~new_f:(fun () -> Rns_poly.mul params pa_eval pb_eval);
  (* Rescale: precomputed-inverse Shoup path vs per-call Fermat inverse. *)
  record "rescale" ~limbs
    ~identical:
      (residues_equal
         (Rns_poly.rescale_last params pa).res
         (Ref.rescale_last ~moduli:params.moduli ~n (pa : Rns_poly.t).res))
    ~ref_f:(fun () -> Ref.rescale_last ~moduli:params.moduli ~n (pa : Rns_poly.t).res)
    ~new_f:(fun () -> Rns_poly.rescale_last params pa);
  (* Automorphism on an NTT-resident operand (cached slot permutation) vs
     the seed coefficient shuffle. *)
  record "automorphism" ~limbs
    ~identical:
      (residues_equal
         (Rns_poly.to_coeff params (Rns_poly.automorphism params ~k pa_eval)).res
         (Ref.automorphism ~moduli:params.moduli ~n ~k (pa : Rns_poly.t).res)
      && residues_equal
           (Rns_poly.automorphism params ~k pa).res
           (Ref.automorphism ~moduli:params.moduli ~n ~k (pa : Rns_poly.t).res))
    ~ref_f:(fun () -> Ref.automorphism ~moduli:params.moduli ~n ~k (pa : Rns_poly.t).res)
    ~new_f:(fun () -> Rns_poly.automorphism params ~k pa_eval);
  (* Plaintext path: the unboxed encoder and decoder against the boxed
     ones, decoded floats compared bit for bit; the pooled embedding
     against one hardware [mod] per coefficient and limb, one limb after
     another. *)
  let values = Array.init params.slots (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let scale = params.scale in
  let coeffs = Encoding.encode_real_centered params ~scale values in
  let pm = Rns_poly.of_centered_coeffs params ~level:limbs coeffs in
  let bits (c : Complex.t) = (Int64.bits_of_float c.re, Int64.bits_of_float c.im) in
  record "encode" ~limbs:0
    ~identical:(arrays_equal coeffs (Ref.encode_real_centered params ~scale values))
    ~ref_f:(fun () -> Ref.encode_real_centered params ~scale values)
    ~new_f:(fun () -> Encoding.encode_real_centered params ~scale values);
  record "decode" ~limbs:1
    ~identical:
      (arrays_equal
         (Array.map bits (Encoding.decode params ~scale pm))
         (Array.map bits (Ref.decode params ~scale pm)))
    ~ref_f:(fun () -> Ref.decode params ~scale pm)
    ~new_f:(fun () -> Encoding.decode params ~scale pm);
  record "of_centered_coeffs" ~limbs
    ~identical:
      (residues_equal (pm : Rns_poly.t).res
         (Ref.of_centered_coeffs ~moduli:params.moduli ~level:limbs coeffs))
    ~ref_f:(fun () -> Ref.of_centered_coeffs ~moduli:params.moduli ~level:limbs coeffs)
    ~new_f:(fun () -> Rns_poly.of_centered_coeffs params ~level:limbs coeffs);
  (* Key switch on an NTT-resident operand (as the pipeline hands c1 over)
     at several levels of one chain: the lazily reduced
     decompose + apply vs the naive hybrid reference, same relinearization
     key.  The level dependence is the point: digits, conversions and
     transforms all grow with the level. *)
  let ks_params = Params.make ~log_n ~max_level:ks_max ~base_bits:31 ~scale_bits:27 () in
  let keys = Keys.keygen ks_params in
  let sk = Keys.relin_key keys in
  let k0, k1 = Keys.switch_key_raw sk in
  List.iter
    (fun level ->
      let d =
        Rns_poly.to_eval ks_params
          (Rns_poly.of_residues
             (Array.init level (fun i -> rand_vec st ~n ~q:ks_params.moduli.(i))))
      in
      let ref_ks () = Ref.key_switch ks_params ~k0 ~k1 d in
      let new_ks () = Keys.apply keys sk (Keys.decompose keys d) in
      record "keyswitch" ~limbs:level
        ~identical:
          (let (r0, r1), (n0, n1) = (ref_ks (), new_ks ()) in
           residues_equal r0 (Rns_poly.to_coeff ks_params n0).res
           && residues_equal r1 (Rns_poly.to_coeff ks_params n1).res)
        ~ref_f:ref_ks ~new_f:new_ks)
    (ks_levels ks_params);
  (* Rotate-and-sum groups through the group MAC: lazy mode (one digit
     decomposition of c1, then one visit per chain position for the whole
     group) against eager mode (one decomposition per member, as a chain of
     unfused rotations would pay).  The digit memo is off, so each lazy call
     decomposes once.  Lazy and eager are bit-identical by construction; the
     row asserts it.  A pure group of 3 members (a radix-4 slot-sum stage)
     at the top level, a weighted group of 16 (a matrix-vector product) at
     half of it. *)
  let rot_sum_row op ~level ~terms =
    let values = Array.init ks_params.slots (fun _ -> Random.State.float st 1.0 -. 0.5) in
    let ct = Eval.encrypt keys ~level values in
    let run mode () = Eval.rot_sum keys ~mode ct ~terms in
    let same (a : Eval.ct) (b : Eval.ct) =
      let res p = (Rns_poly.to_coeff ks_params p).Rns_poly.res in
      residues_equal (res a.c0) (res b.c0) && residues_equal (res a.c1) (res b.c1)
    in
    Eval.set_digit_cache false;
    record op ~limbs:level
      ~identical:(same (run `Lazy ()) (run `Eager ()))
      ~ref_f:(run `Eager) ~new_f:(run `Lazy);
    Eval.set_digit_cache true
  in
  let diag () = Some (Array.init ks_params.slots (fun _ -> Random.State.float st 1.0 -. 0.5)) in
  rot_sum_row "rot_sum_pure" ~level:ks_max ~terms:(List.init 3 (fun i -> (i + 1, None)));
  rot_sum_row "rot_sum_weighted" ~level:(max 2 (ks_max / 2))
    ~terms:(List.init 16 (fun i -> (i, diag ())));
  (* Rescale of an NTT-resident operand: inverse-transform the dropped limb
     only and stay resident, against rescaling through the coefficient
     domain and lifting the result back, as a consumer of a Coeff rescale
     had to. *)
  let through_coeff () =
    Rns_poly.to_eval params (Rns_poly.rescale_last params (Rns_poly.to_coeff params pa_eval))
  in
  record "rescale_resident" ~limbs
    ~identical:
      (residues_equal (through_coeff ()).res (Rns_poly.rescale_last params pa_eval).res
      && Rns_poly.domain (Rns_poly.rescale_last params pa_eval) = Rns_poly.Eval)
    ~ref_f:through_coeff
    ~new_f:(fun () -> Rns_poly.rescale_last params pa_eval);
  (* Reducing one limb of pointwise products of two varying residues, at
     the 31-bit base prime: the split-Shoup reducer against hardware [mod]
     ([reduce]) and against a float-quotient Barrett step ([reduce_float]),
     outputs compared. *)
  let prods = Array.init n (fun i -> a1.(i) * b1.(i)) in
  let red = Ref.reducer q and qinv = 1.0 /. Float.of_int q in
  let dst = Array.make n 0 in
  let by_shoup () =
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (Ref.reduce62 red (Array.unsafe_get prods i))
    done
  and by_mod () =
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (Array.unsafe_get prods i mod q)
    done
  and by_float () =
    for i = 0 to n - 1 do
      Array.unsafe_set dst i (barrett_reduce ~q ~qinv (Array.unsafe_get prods i))
    done
  in
  let output f = f (); Array.copy dst in
  let shoup_out = output by_shoup in
  record "reduce" ~limbs:1 ~identical:(arrays_equal shoup_out (output by_mod)) ~ref_f:by_shoup
    ~new_f:by_mod;
  record "reduce_float" ~limbs:1 ~identical:(arrays_equal shoup_out (output by_float))
    ~ref_f:by_shoup ~new_f:by_float;
  (* Centered base conversion of digit 0 (it holds the 31-bit base prime)
     of a 16-level chain (alpha = 4) into the first special prime, cut to
     1, 2 and 4 sources: the per-source loop against the one-pass loop.
     The scaled limbs are random, with every edge value of the centering
     (0, b - 1, b / 2, b / 2 + 1) in the first slots. *)
  let cv_params = Params.make ~log_n ~max_level:16 ~base_bits:31 ~scale_bits:27 () in
  let target = cv_params.max_level in
  let m = cv_params.specials.(0) in
  List.iter
    (fun sources ->
      let basis = cv_params.mod_up.(0).(sources - 1) in
      let ys =
        Array.map
          (fun b ->
            let y = rand_vec st ~n ~q:b in
            List.iteri (fun j e -> y.(j) <- e) [ 0; b - 1; b / 2; (b / 2) + 1 ];
            y)
          basis.src_q
      in
      let d_ref = Array.make n 0 and d_new = Array.make n 0 in
      Ref.convert basis ~m ys target d_ref;
      Keys.convert cv_params basis ys target d_new;
      record "convert" ~limbs:sources ~identical:(arrays_equal d_ref d_new)
        ~ref_f:(fun () -> Ref.convert basis ~m ys target d_ref)
        ~new_f:(fun () -> Keys.convert cv_params basis ys target d_new))
    [ 1; 2; 4 ];
  (* Rotation-key generation, the same keys built strictly sequentially and
     on the pool.  A one-byte budget keeps only the newest key resident, so
     alternating two offsets regenerates a key on every fetch. *)
  let seq_keys = Domain_pool.sequentially (fun () -> Keys.keygen ks_params) in
  let raw_key keys offset = Keys.switch_key_raw (Keys.rotation_key keys ~offset) in
  let keygen_identical =
    Keys.switch_key_raw (Keys.relin_key seq_keys) = Keys.switch_key_raw sk
    && List.for_all
         (fun o -> Domain_pool.sequentially (fun () -> raw_key seq_keys o) = raw_key keys o)
         [ 1; 2 ]
  in
  let size =
    let fresh = Keys.keygen ks_params in
    ignore (Keys.rotation_key fresh ~offset:1);
    {
      kn = n;
      klevels = ks_max;
      kdigits = Params.digits ks_params ~level:ks_max;
      kbytes = (Keys.cache_stats fresh).Keys.snap_resident_bytes;
    }
  in
  Printf.printf "%-18s n=%-5d levels=%-2d digits=%d  %d bytes per key\n%!" "key_bytes" size.kn
    size.klevels size.kdigits size.kbytes;
  List.iter (fun k -> Keys.set_key_budget k 1) [ keys; seq_keys ];
  let fetch keys =
    let flip = ref 2 in
    fun () ->
      flip := 3 - !flip;
      Keys.rotation_key keys ~offset:!flip
  in
  let fetch_seq = fetch seq_keys and fetch_pool = fetch keys in
  record "rotation_keygen" ~limbs:ks_max ~identical:keygen_identical
    ~ref_f:(fun () -> Domain_pool.sequentially fetch_seq)
    ~new_f:fetch_pool;
  (List.rev !out, size)

(* A noisy reference-backend [multcp] over [slots] slots: the frozen
   per-slot path against the draw/transform kernel, from the same RNG
   position.  The row asserts equal output bits and an equal next draw
   (the two RNGs advanced alike). *)
let bench_ref_noise ~min_time slots =
  let sigma = 1e-8 in
  let st = Ref_backend.create ~mult_noise:sigma ~slots ~max_level:2 ~scale_bits:30 () in
  let rng = Ref_backend.rng_state st in
  let x = Array.init slots (fun i -> sin (float_of_int i)) in
  let w = Array.init slots (fun i -> cos (float_of_int i)) in
  let ct = Ref_backend.make_ct ~data:x ~level:2 ~scale_bits:30.0 () in
  let bits a = Array.map Int64.bits_of_float a in
  let identical =
    let want = Ref.multcp_noise rng ~sigma x w in
    let got = (Ref_backend.multcp st ct w).data in
    bits want = bits got && Random.State.bits rng = Random.State.bits (Ref_backend.rng_state st)
  in
  let r =
    {
      op = "ref_noise";
      rn = slots;
      limbs = 0;
      ns = time_ns ~min_time (fun () -> Ref_backend.multcp st ct w);
      ref_ns = time_ns ~min_time (fun () -> Ref.multcp_noise rng ~sigma x w);
      identical;
    }
  in
  print_result r;
  r

(* The cleartext ops ([Halo_runtime.Clear_backend], the interpreter's
   plaintext values) over [slots] slots: the frozen [Array.map2] /
   [Array.init] forms against the shared {!Slots} kernels, bits asserted. *)
let bench_clear_ops ~min_time slots =
  let x = Array.init slots (fun i -> sin (float_of_int i)) in
  let y = Array.init slots (fun i -> cos (float_of_int i)) in
  let bits a = Array.map Int64.bits_of_float a in
  let offset = (slots / 2) + 3 in
  List.map
    (fun (op, ref_f, new_f) ->
      let r =
        {
          op;
          rn = slots;
          limbs = 0;
          ns = time_ns ~min_time new_f;
          ref_ns = time_ns ~min_time ref_f;
          identical = bits (ref_f ()) = bits (new_f ());
        }
      in
      print_result r;
      r)
    [
      ("clear_add", (fun () -> Ref.clear_add x y), fun () -> Slots.add x y);
      ("clear_mul", (fun () -> Ref.clear_mul x y), fun () -> Slots.mul x y);
      ( "clear_rotate",
        (fun () -> Ref.clear_rotate x ~offset),
        fun () -> Slots.rotate x ~offset );
    ]

(* CSE's key for an [n]-element vector constant: the frozen [%h] digest
   against [Cse.const_fingerprint]'s bit key.  The row asserts that both
   keys make the same merge decisions over every pair of a set of splats
   and vectors that includes both zeros, one-ulp neighbours, subnormals,
   infinities and repeats. *)
let bench_cse_key ~min_time n =
  let module Ir = Halo.Ir in
  let xs = Array.init n (fun i -> sin (float_of_int i)) in
  let v = Ir.Vector xs in
  let scalars =
    [ 0.0; -0.0; 1.0; Float.succ 1.0; Float.pred 1.0; 0.5; 0.5; Float.min_float;
      Float.succ 0.0; Float.infinity; Float.neg_infinity; -1.0; -0.0 ]
  in
  let with_slot x = Ir.Vector (Array.mapi (fun i y -> if i = 3 then x else y) xs) in
  let consts =
    List.map (fun x -> Ir.Splat x) scalars @ List.map with_slot scalars @ [ v; Ir.Vector [||] ]
  in
  let decisions key =
    let keys = List.map key consts in
    List.concat_map (fun a -> List.map (fun b -> String.equal a b) keys) keys
  in
  let r =
    {
      op = "cse_key";
      rn = n;
      limbs = 0;
      ns = time_ns ~min_time (fun () -> Halo.Cse.const_fingerprint v);
      ref_ns = time_ns ~min_time (fun () -> Ref.cse_key v);
      identical = decisions Ref.cse_key = decisions Halo.Cse.const_fingerprint;
    }
  in
  print_result r;
  r

let json_of_results ~min_time results sizes =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"halo-bench-kernels/v1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"host\": %S,\n" (Host.describe ()));
  Buffer.add_string b (Printf.sprintf "  \"pool\": %d,\n" (Domain_pool.size ()));
  Buffer.add_string b (Printf.sprintf "  \"min_time_s\": %g,\n" min_time);
  Buffer.add_string b "  \"results\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string b
        (Printf.sprintf
           "    { \"op\": %S, \"n\": %d, \"limbs\": %d, \"ns_per_op\": %.1f, \
            \"ref_ns_per_op\": %.1f, \"speedup\": %.2f, \"bit_identical\": %b }%s\n"
           r.op r.rn r.limbs r.ns r.ref_ns (r.ref_ns /. r.ns) r.identical
           (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string b "  ],\n  \"key_bytes\": [\n";
  List.iteri
    (fun i k ->
      Buffer.add_string b
        (Printf.sprintf "    { \"n\": %d, \"levels\": %d, \"digits\": %d, \"bytes\": %d }%s\n"
           k.kn k.klevels k.kdigits k.kbytes
           (if i = List.length sizes - 1 then "" else ",")))
    sizes;
  Buffer.add_string b "  ]\n}\n";
  Buffer.contents b

let () =
  let log_sizes = ref [ 10; 11; 12 ] in
  let limbs = ref 8 in
  (* Key-switch rows: levels 4, 8 and 16 of a 16-level chain (alpha = 4);
     --tiny runs levels 1, alpha and alpha + 1 of its 3-level chain. *)
  let ks_max = ref 16 in
  let ks_levels = ref (fun (_ : Params.t) -> [ 4; 8; 16 ]) in
  let min_time = ref 0.2 in
  let json_path = ref "" in
  let set_sizes s =
    log_sizes := List.map int_of_string (String.split_on_char ',' s)
  in
  let spec =
    [
      ("--log-sizes", Arg.String set_sizes, "CSV of log2 ring sizes (default 10,11,12)");
      ("--limbs", Arg.Set_int limbs, "modulus-chain length (default 8)");
      ("--min-time", Arg.Set_float min_time, "seconds per measurement (default 0.2)");
      ("--json", Arg.Set_string json_path, "write a JSON report to PATH");
      ( "--tiny",
        Arg.Unit
          (fun () ->
            log_sizes := [ 6; 7 ];
            limbs := 3;
            ks_max := 3;
            ks_levels := (fun p -> [ 1; p.Params.alpha; p.Params.alpha + 1 ]);
            min_time := 0.01),
        "CI smoke mode: two tiny rings, even and odd log n" );
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench_kernels: seed-vs-optimized CKKS kernel timings";
  Printf.printf "kernel bench: pool=%d sizes=%s limbs=%d\n%!" (Domain_pool.size ())
    (String.concat "," (List.map string_of_int !log_sizes))
    !limbs;
  let results, sizes =
    List.split
      (List.map
         (bench_size ~min_time:!min_time ~limbs:!limbs ~ks_max:!ks_max ~ks_levels:!ks_levels)
         !log_sizes)
  in
  let cleartext = [ 1024; 4096 ] in
  let noise = List.map (bench_ref_noise ~min_time:!min_time) cleartext in
  let clear = List.concat_map (bench_clear_ops ~min_time:!min_time) cleartext in
  let cse = List.map (bench_cse_key ~min_time:!min_time) cleartext in
  let results = List.concat results @ noise @ clear @ cse in
  if !json_path <> "" then begin
    let oc = open_out !json_path in
    output_string oc (json_of_results ~min_time:!min_time results sizes);
    close_out oc;
    Printf.printf "wrote %s\n%!" !json_path
  end;
  if List.exists (fun r -> not r.identical) results then begin
    prerr_endline "bench_kernels: bit-identity FAILED";
    exit 1
  end
