(* Unit and property tests for the RNS-CKKS substrate (lib/ckks). *)

open Halo_ckks

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Modarith                                                            *)
(* ------------------------------------------------------------------ *)

let test_modarith_basic () =
  let m = 17 in
  Alcotest.(check int) "add wraps" 3 (Modarith.add ~m 10 10);
  Alcotest.(check int) "sub wraps" 15 (Modarith.sub ~m 2 4);
  Alcotest.(check int) "neg" 13 (Modarith.neg ~m 4);
  Alcotest.(check int) "neg zero" 0 (Modarith.neg ~m 0);
  Alcotest.(check int) "mul" 13 (Modarith.mul ~m 5 6);
  Alcotest.(check int) "pow" (Modarith.pow ~m 3 4) 13;
  Alcotest.(check int) "reduce negative" 14 (Modarith.reduce ~m (-3));
  Alcotest.(check int) "center high" (-8) (Modarith.center ~m 9);
  Alcotest.(check int) "center low" 8 (Modarith.center ~m 8)

let test_modarith_inv_prop =
  QCheck.Test.make ~name:"modular inverse: a * inv(a) = 1 mod p" ~count:200
    QCheck.(pair (int_range 1 1_000_000) (int_range 0 10))
    (fun (a, pick) ->
      let primes = [ 17; 97; 257; 65537; 786433; 1004535809 ] in
      let p = List.nth primes (pick mod List.length primes) in
      let a = (a mod (p - 1)) + 1 in
      Modarith.mul ~m:p a (Modarith.inv ~m:p a) = 1)

let test_modarith_mul_no_overflow () =
  (* Largest 31-bit NTT prime products must not overflow native int. *)
  let q = Primes.ntt_prime_below ~n:1024 ((1 lsl 31) - 1) in
  let a = q - 1 and b = q - 2 in
  let expected = Modarith.mul ~m:q (q - 1) (q - 2) in
  (* (q-1)(q-2) = q^2 - 3q + 2 = 2 - 3q mod q = 2 mod q *)
  Alcotest.(check int) "wrap-around product" 2 expected;
  Alcotest.(check bool) "operands in range" true (a < q && b < q)

(* ------------------------------------------------------------------ *)
(* Primes                                                              *)
(* ------------------------------------------------------------------ *)

let test_primes_known () =
  List.iter
    (fun (n, expect) -> Alcotest.(check bool) (string_of_int n) expect (Primes.is_prime n))
    [
      (0, false); (1, false); (2, true); (3, true); (4, false); (17, true);
      (561, false) (* Carmichael *); (7919, true); (1 lsl 20, false);
      (1004535809, true) (* 479 * 2^21 + 1 *);
    ]

let test_ntt_primes () =
  let n = 1024 in
  let ps = Primes.ntt_primes ~n ~bits:25 ~count:5 in
  Alcotest.(check int) "count" 5 (List.length ps);
  List.iter
    (fun q ->
      Alcotest.(check bool) "prime" true (Primes.is_prime q);
      Alcotest.(check int) "q = 1 mod 2n" 1 (q mod (2 * n));
      Alcotest.(check bool) "below 2^25" true (q < 1 lsl 25))
    ps;
  let sorted = List.sort_uniq compare ps in
  Alcotest.(check int) "distinct" 5 (List.length sorted)

let test_primitive_root () =
  let n = 256 in
  let q = Primes.ntt_prime_below ~n ((1 lsl 28) - 1) in
  let psi = Primes.primitive_root_2n ~q ~n in
  Alcotest.(check int) "psi^n = -1" (q - 1) (Modarith.pow ~m:q psi n);
  Alcotest.(check int) "psi^2n = 1" 1 (Modarith.pow ~m:q psi (2 * n))

(* ------------------------------------------------------------------ *)
(* FFT                                                                 *)
(* ------------------------------------------------------------------ *)

let complex_array_near msg a b =
  Array.iteri
    (fun i (x : Complex.t) ->
      let y : Complex.t = b.(i) in
      if Float.abs (x.re -. y.re) > 1e-6 || Float.abs (x.im -. y.im) > 1e-6 then
        Alcotest.failf "%s: index %d: (%g, %g) vs (%g, %g)" msg i x.re x.im y.re y.im)
    a

(* The transform works on split real / imaginary arrays. *)
let fft_of f (a : Complex.t array) =
  let re = Array.map (fun (c : Complex.t) -> c.re) a
  and im = Array.map (fun (c : Complex.t) -> c.im) a in
  f (Fft.plan (Array.length a)) re im;
  Array.map2 (fun re im -> { Complex.re; im }) re im

let test_fft_roundtrip () =
  let rng = Random.State.make [| 42 |] in
  let a =
    Array.init 256 (fun _ ->
        { Complex.re = Random.State.float rng 2.0 -. 1.0;
          im = Random.State.float rng 2.0 -. 1.0 })
  in
  complex_array_near "fft . ifft = id" a (fft_of Fft.ifft (fft_of Fft.fft a))

let test_fft_impulse () =
  (* The DFT of a unit impulse is the all-ones vector. *)
  let a = Array.make 8 Complex.zero in
  a.(0) <- Complex.one;
  complex_array_near "impulse" (Array.make 8 Complex.one) (fft_of Fft.fft a)

let test_fft_direct () =
  (* Against the O(n^2) definition, both directions. *)
  let n = 16 in
  let rng = Random.State.make [| 7 |] in
  let a =
    Array.init n (fun _ ->
        { Complex.re = Random.State.float rng 2.0 -. 1.0;
          im = Random.State.float rng 2.0 -. 1.0 })
  in
  let dft sign scale =
    Array.init n (fun k ->
        let acc = ref Complex.zero in
        Array.iteri
          (fun j x ->
            let ang = sign *. 2.0 *. Float.pi *. float_of_int (j * k) /. float_of_int n in
            acc := Complex.add !acc (Complex.mul x (Complex.polar 1.0 ang)))
          a;
        { Complex.re = !acc.re *. scale; im = !acc.im *. scale })
  in
  complex_array_near "fft" (dft (-1.0) 1.0) (fft_of Fft.fft a);
  complex_array_near "ifft" (dft 1.0 (1.0 /. float_of_int n)) (fft_of Fft.ifft a);
  Alcotest.check_raises "length mismatch" (Invalid_argument "Fft: length mismatch")
    (fun () -> Fft.fft (Fft.plan n) (Array.make n 0.0) (Array.make (n / 2) 0.0));
  Alcotest.check_raises "size" (Invalid_argument "Fft: size must be a power of two")
    (fun () -> ignore (Fft.plan 12))

let test_fft_linearity =
  QCheck.Test.make ~name:"fft (a + b) = fft a + fft b" ~count:50
    QCheck.(list_of_size (Gen.return 64) (float_bound_exclusive 1.0))
    (fun xs ->
      let xs = Array.of_list xs in
      let c re = { Complex.re; im = 0.0 } in
      let a = Array.map c xs in
      let b = Array.mapi (fun i _ -> c (float_of_int (i mod 5) -. 2.0)) xs in
      let sum = fft_of Fft.fft (Array.map2 Complex.add a b) in
      Array.for_all2
        (fun (s : Complex.t) (t : Complex.t) ->
          Complex.norm (Complex.sub s t) < 1e-6)
        sum
        (Array.map2 Complex.add (fft_of Fft.fft a) (fft_of Fft.fft b)))

(* ------------------------------------------------------------------ *)
(* NTT                                                                 *)
(* ------------------------------------------------------------------ *)

let small_ntt_ctx () =
  let n = 64 in
  let q = Primes.ntt_prime_below ~n ((1 lsl 28) - 1) in
  Ntt.make_ctx ~q ~n

let test_ntt_roundtrip () =
  let ctx = small_ntt_ctx () in
  let q = Ntt.q ctx and n = Ntt.n ctx in
  let rng = Random.State.make [| 7 |] in
  let a = Array.init n (fun _ -> Random.State.int rng q) in
  let b = Ntt.inverse ctx (Ntt.forward ctx a) in
  Alcotest.(check (array int)) "inverse . forward = id" a b

let schoolbook_negacyclic q a b =
  let n = Array.length a in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = i + j in
      let prod = Modarith.mul ~m:q a.(i) b.(j) in
      if k < n then out.(k) <- Modarith.add ~m:q out.(k) prod
      else out.(k - n) <- Modarith.sub ~m:q out.(k - n) prod
    done
  done;
  out

let test_ntt_negacyclic_mul () =
  let ctx = small_ntt_ctx () in
  let q = Ntt.q ctx and n = Ntt.n ctx in
  let rng = Random.State.make [| 11 |] in
  let a = Array.init n (fun _ -> Random.State.int rng q) in
  let b = Array.init n (fun _ -> Random.State.int rng q) in
  Alcotest.(check (array int))
    "ntt product = schoolbook" (schoolbook_negacyclic q a b)
    (Ntt.negacyclic_mul ctx a b)

let test_ntt_x_times_xn1 () =
  (* X^(n-1) * X = X^n = -1 in the negacyclic ring. *)
  let ctx = small_ntt_ctx () in
  let q = Ntt.q ctx and n = Ntt.n ctx in
  let x = Array.make n 0 and xn1 = Array.make n 0 in
  x.(1) <- 1;
  xn1.(n - 1) <- 1;
  let prod = Ntt.negacyclic_mul ctx x xn1 in
  let expected = Array.make n 0 in
  expected.(0) <- q - 1;
  Alcotest.(check (array int)) "wraps with sign" expected prod

let test_ntt_linearity =
  QCheck.Test.make ~name:"ntt (a+b) = ntt a + ntt b" ~count:50
    QCheck.(int_range 1 1000)
    (fun seed ->
      let ctx = small_ntt_ctx () in
      let q = Ntt.q ctx and n = Ntt.n ctx in
      let rng = Random.State.make [| seed |] in
      let a = Array.init n (fun _ -> Random.State.int rng q) in
      let b = Array.init n (fun _ -> Random.State.int rng q) in
      let sum = Array.map2 (fun x y -> Modarith.add ~m:q x y) a b in
      let fa = Ntt.forward ctx a and fb = Ntt.forward ctx b in
      let fsum = Ntt.forward ctx sum in
      fsum = Array.map2 (fun x y -> Modarith.add ~m:q x y) fa fb)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let tiny_params () = Params.test_small ()

let float_array_near ?(tol = 5e-4) msg a b =
  Array.iteri
    (fun i x ->
      if Float.abs (x -. b.(i)) > tol then
        Alcotest.failf "%s: index %d: %g vs %g" msg i x b.(i))
    a

let test_encode_decode_roundtrip () =
  let p = tiny_params () in
  let rng = Random.State.make [| 5 |] in
  let values = Array.init p.slots (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let poly = Encoding.encode_real p ~level:2 ~scale:p.scale values in
  let back = Encoding.decode_real p ~scale:p.scale poly in
  float_array_near "decode . encode = id" values back

let test_encode_additive () =
  let p = tiny_params () in
  let a = Array.init p.slots (fun i -> float_of_int (i mod 7) /. 10.0) in
  let b = Array.init p.slots (fun i -> float_of_int (i mod 3) /. 5.0) in
  let pa = Encoding.encode_real p ~level:1 ~scale:p.scale a in
  let pb = Encoding.encode_real p ~level:1 ~scale:p.scale b in
  let sum = Rns_poly.add p pa pb in
  float_array_near "plaintext addition"
    (Array.map2 ( +. ) a b)
    (Encoding.decode_real p ~scale:p.scale sum)

let test_rot_group () =
  let p = tiny_params () in
  let g = Encoding.rot_group p in
  Alcotest.(check int) "first element" 1 g.(0);
  let two_n = 2 * p.n in
  Array.iteri
    (fun j r ->
      if j > 0 then
        Alcotest.(check int) (Printf.sprintf "5^%d" j) (g.(j - 1) * 5 mod two_n) r)
    g;
  let sorted = Array.to_list g |> List.sort_uniq compare in
  Alcotest.(check int) "distinct roots" p.slots (List.length sorted)

(* ------------------------------------------------------------------ *)
(* Rns_poly: rescale and modswitch                                     *)
(* ------------------------------------------------------------------ *)

let test_rescale_exact () =
  let p = tiny_params () in
  (* Encode at a scale that is exactly q_last * small_scale, rescale, and
     compare against encoding directly at small_scale. *)
  let level = 3 in
  let q_last = Params.modulus_at p ~level in
  (* Rounding during rescale perturbs each coefficient by at most 1/2, which
     shows up at the slots as ~sqrt(n)/scale; a 2^20 residual scale keeps
     that around 1e-5. *)
  let small = Float.ldexp 1.0 20 in
  let values = Array.init p.slots (fun i -> float_of_int (i mod 5) /. 8.0) in
  let big = Encoding.encode_real p ~level ~scale:(small *. float_of_int q_last) values in
  let rescaled = Rns_poly.rescale_last p big in
  float_array_near ~tol:1e-3 "rescale divides by dropped prime" values
    (Encoding.decode_real p ~scale:small rescaled)

let test_modswitch_preserves_value () =
  let p = tiny_params () in
  let values = Array.init p.slots (fun i -> float_of_int (i mod 9) /. 10.0) in
  let poly = Encoding.encode_real p ~level:4 ~scale:p.scale values in
  let dropped = Rns_poly.to_level p ~level:1 poly in
  Alcotest.(check int) "level" 1 (Rns_poly.level dropped);
  float_array_near "value preserved" values (Encoding.decode_real p ~scale:p.scale dropped)

(* ------------------------------------------------------------------ *)
(* Eval: the homomorphic operation set                                 *)
(* ------------------------------------------------------------------ *)

let keys_memo = ref None

let test_keys () =
  match !keys_memo with
  | Some k -> k
  | None ->
    let k = Keys.keygen (tiny_params ()) in
    keys_memo := Some k;
    k

let sample_values ?(bound = 1.0) seed slots =
  let rng = Random.State.make [| seed |] in
  Array.init slots (fun _ -> Random.State.float rng (2.0 *. bound) -. bound)

let test_encrypt_decrypt () =
  let keys = test_keys () in
  let p = keys.params in
  let values = sample_values 21 p.slots in
  let ct = Eval.encrypt keys ~level:p.max_level values in
  float_array_near "public-key round trip" values (Eval.decrypt keys ct);
  let ct2 = Eval.encrypt_sym keys ~level:2 values in
  float_array_near "symmetric round trip" values (Eval.decrypt keys ct2)

(* [int_of_float] maps NaN and 1e30 to 0 and wraps past 2^62, so one bad
   slot would silently decrypt every slot to garbage.  The encoder rejects
   non-finite slots and coefficients of magnitude 2^62 or more, and
   the lattice adapter reports the op that encoded as a backend error. *)
let rejects msg f =
  Alcotest.(check bool) msg true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let backend_rejects keys values =
  let module L = Halo_runtime.Lattice_backend in
  let ct = Eval.encrypt keys ~level:2 (Array.make keys.Keys.params.slots 0.5) in
  List.iter
    (fun (op, f) ->
      match f () with
      | _ -> Alcotest.failf "lattice %s accepted a bad slot" op
      | exception Halo_error.Backend_error { site; _ } ->
        Alcotest.(check string) "error site" op site.op)
    [
      ("encrypt", fun () -> L.encrypt keys ~level:2 values);
      ("addcp", fun () -> L.addcp keys ct values);
      ("multcp", fun () -> L.multcp keys ct values);
    ]

let test_encode_rejects_non_finite () =
  let keys = test_keys () in
  let p = keys.params in
  List.iter
    (fun bad ->
      let values = Array.init p.slots (fun i -> if i = 1 then bad else 0.5) in
      rejects (Printf.sprintf "encrypt %g" bad) (fun () -> Eval.encrypt keys ~level:2 values);
      rejects (Printf.sprintf "complex slot %g" bad) (fun () ->
          Encoding.encode_centered p ~scale:p.scale [| { Complex.re = 0.5; im = bad } |]);
      backend_rejects keys values)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_encode_rejects_wide_coefficients () =
  let keys = test_keys () in
  let p = keys.params in
  let values = Array.init p.slots (fun i -> if i = 1 then 1e30 else 0.5) in
  rejects "encrypt 1e30" (fun () -> Eval.encrypt keys ~level:2 values);
  backend_rejects keys values;
  (* A constant vector encodes to the constant coefficient value * scale:
     4.7e18 is past 2^62 (about 4.61e18), 4.6e18 is not. *)
  let ones = Array.make p.slots 1.0 in
  rejects "coefficient 4.7e18" (fun () -> Encoding.encode_real_centered p ~scale:4.7e18 ones);
  let c = Encoding.encode_real_centered p ~scale:4.6e18 ones in
  Alcotest.(check bool) "coefficient 4.6e18 kept" true
    (Float.abs (float_of_int c.(0) -. 4.6e18) < 1e6)

let test_addcc_subcc () =
  let keys = test_keys () in
  let p = keys.params in
  let a = sample_values 31 p.slots and b = sample_values 32 p.slots in
  let ca = Eval.encrypt keys ~level:3 a and cb = Eval.encrypt keys ~level:3 b in
  float_array_near "addcc" (Array.map2 ( +. ) a b) (Eval.decrypt keys (Eval.addcc keys ca cb));
  float_array_near "subcc" (Array.map2 ( -. ) a b) (Eval.decrypt keys (Eval.subcc keys ca cb))

let test_addcp () =
  let keys = test_keys () in
  let p = keys.params in
  let a = sample_values 33 p.slots and b = sample_values 34 p.slots in
  let ca = Eval.encrypt keys ~level:3 a in
  float_array_near "addcp" (Array.map2 ( +. ) a b) (Eval.decrypt keys (Eval.addcp keys ca b))

let test_multcc_rescale () =
  let keys = test_keys () in
  let p = keys.params in
  let a = sample_values 41 p.slots and b = sample_values 42 p.slots in
  let ca = Eval.encrypt keys ~level:3 a and cb = Eval.encrypt keys ~level:3 b in
  let prod = Eval.rescale keys (Eval.multcc keys ca cb) in
  Alcotest.(check int) "level consumed" 2 (Eval.level prod);
  float_array_near ~tol:1e-3 "multcc" (Array.map2 ( *. ) a b) (Eval.decrypt keys prod)

let test_multcp_rescale () =
  let keys = test_keys () in
  let p = keys.params in
  let a = sample_values 43 p.slots and b = sample_values 44 p.slots in
  let ca = Eval.encrypt keys ~level:3 a in
  let prod = Eval.rescale keys (Eval.multcp keys ca b) in
  float_array_near ~tol:1e-3 "multcp" (Array.map2 ( *. ) a b) (Eval.decrypt keys prod)

let test_mult_chain () =
  (* Three chained multiplications exercise relinearization noise growth. *)
  let keys = test_keys () in
  let p = keys.params in
  let a = sample_values 45 p.slots in
  let ct = ref (Eval.encrypt keys ~level:5 a) in
  let expect = ref a in
  for _ = 1 to 3 do
    ct := Eval.rescale keys (Eval.multcc keys !ct !ct);
    expect := Array.map (fun v -> v *. v) !expect
  done;
  float_array_near ~tol:1e-2 "squaring chain" !expect (Eval.decrypt keys !ct)

let test_rotate () =
  let keys = test_keys () in
  let p = keys.params in
  (* Slot values must stay small: coefficients scale with |value| * scale and
     the centered decode needs them below moduli.(0) / 2. *)
  let a = Array.init p.slots (fun i -> float_of_int (i mod 31) /. 8.0) in
  let ca = Eval.encrypt keys ~level:2 a in
  let check off =
    let rotated = Eval.decrypt keys (Eval.rotate keys ca ~offset:off) in
    let expected =
      Array.init p.slots (fun i ->
          a.(((i + off) mod p.slots + p.slots) mod p.slots))
    in
    float_array_near ~tol:1e-3 (Printf.sprintf "rotate %d" off) expected rotated
  in
  List.iter check [ 1; 2; 7; p.slots / 2; -1; -3 ]

let test_modswitch_eval () =
  let keys = test_keys () in
  let p = keys.params in
  let a = sample_values 51 p.slots in
  let ca = Eval.encrypt keys ~level:4 a in
  let down = Eval.modswitch keys ca ~down:2 in
  Alcotest.(check int) "level after modswitch" 2 (Eval.level down);
  float_array_near "value preserved" a (Eval.decrypt keys down)

let test_level_mismatch_rejected () =
  let keys = test_keys () in
  let p = keys.params in
  let a = sample_values 52 p.slots in
  let c1 = Eval.encrypt keys ~level:3 a and c2 = Eval.encrypt keys ~level:2 a in
  Alcotest.check_raises "addcc level mismatch"
    (Invalid_argument "Eval.addcc: level mismatch (3 vs 2)") (fun () ->
      ignore (Eval.addcc keys c1 c2))

let test_homomorphic_add_prop =
  QCheck.Test.make ~name:"dec (enc a + enc b) ~ a + b" ~count:10
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let keys = test_keys () in
      let p = keys.params in
      let a = sample_values seed p.slots and b = sample_values (seed + 1) p.slots in
      let sum =
        Eval.decrypt keys
          (Eval.addcc keys (Eval.encrypt keys ~level:2 a) (Eval.encrypt keys ~level:2 b))
      in
      Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-3) sum (Array.map2 ( +. ) a b))

(* ------------------------------------------------------------------ *)
(* Bootstrap oracle                                                    *)
(* ------------------------------------------------------------------ *)

let test_bootstrap_recovers_level () =
  let keys = test_keys () in
  let p = keys.params in
  let a = sample_values 61 p.slots in
  let ct = Eval.encrypt keys ~level:1 a in
  let boosted = Bootstrap_oracle.bootstrap keys ct ~target:p.max_level in
  Alcotest.(check int) "level raised" p.max_level (Eval.level boosted);
  float_array_near ~tol:1e-3 "value preserved" a (Eval.decrypt keys boosted);
  let partial = Bootstrap_oracle.bootstrap keys ct ~target:5 in
  Alcotest.(check int) "tuned target" 5 (Eval.level partial)

let test_bootstrap_then_compute () =
  let keys = test_keys () in
  let p = keys.params in
  let a = sample_values 62 p.slots in
  let ct = Eval.encrypt keys ~level:1 a in
  let boosted = Bootstrap_oracle.bootstrap keys ct ~target:4 in
  let sq = Eval.rescale keys (Eval.multcc keys boosted boosted) in
  float_array_near ~tol:1e-3 "compute after bootstrap"
    (Array.map (fun v -> v *. v) a)
    (Eval.decrypt keys sq)

(* ------------------------------------------------------------------ *)
(* Real bootstrapping pipeline                                         *)
(* ------------------------------------------------------------------ *)

let boot_params_memo = ref None

let boot_setup () =
  match !boot_params_memo with
  | Some s -> s
  | None ->
    let params = Params.make ~log_n:6 ~max_level:16 ~base_bits:31 ~scale_bits:27 () in
    let keys = Keys.keygen params in
    let ctx = Bootstrap_real.make_ctx params in
    let s = (params, keys, ctx) in
    boot_params_memo := Some s;
    s

let test_conjugate () =
  let params, keys, _ = boot_setup () in
  let values =
    Array.init params.slots (fun i ->
        { Complex.re = float_of_int (i mod 5) /. 10.0;
          im = float_of_int (i mod 3) /. 7.0 })
  in
  let m = Encoding.encode params ~level:3 ~scale:params.scale values in
  let ct = Eval.of_parts ~c0:m ~c1:(Rns_poly.zero params ~level:3) ~scale:params.scale in
  (* A transparent ciphertext is fine for testing the automorphism; add a
     real encryption on top to exercise the key switch too. *)
  let enc = Eval.addcc keys ct (Eval.encrypt_sym keys ~level:3 (Array.make params.slots 0.0)) in
  let conj = Eval.conjugate keys enc in
  let dec = Eval.decrypt_complex keys conj in
  Array.iteri
    (fun i (v : Complex.t) ->
      let e = Complex.conj values.(i) in
      if Float.abs (v.re -. e.re) > 1e-3 || Float.abs (v.im -. e.im) > 1e-3 then
        Alcotest.failf "conjugate slot %d: (%g, %g) vs (%g, %g)" i v.re v.im e.re e.im)
    dec

let test_multcp_exact () =
  let params, keys, _ = boot_setup () in
  let values = Array.init params.slots (fun i -> 0.1 +. (0.01 *. float_of_int (i mod 7))) in
  let ct = Eval.encrypt_sym keys ~level:5 values in
  let target = params.scale *. 1.0 in
  let out = Eval.multcp_exact keys ct (Array.make params.slots 3.0) ~target in
  Alcotest.(check (float 1e-12)) "exact scale" target (Eval.scale out);
  let dec = Eval.decrypt keys out in
  Array.iteri
    (fun i v ->
      if Float.abs (v -. (3.0 *. values.(i))) > 1e-3 then
        Alcotest.failf "multcp_exact slot %d: %g vs %g" i v (3.0 *. values.(i)))
    dec

let test_real_bootstrap_roundtrip () =
  let params, keys, ctx = boot_setup () in
  let rng = Random.State.make [| 12 |] in
  let values = Array.init params.slots (fun _ -> Random.State.float rng 0.8 -. 0.4) in
  let ct = Eval.encrypt_sym keys ~level:1 values in
  let boosted = Bootstrap_real.bootstrap ctx keys ct in
  Alcotest.(check int) "restored level"
    (params.max_level - Bootstrap_real.consumed ctx)
    (Eval.level boosted);
  let dec = Eval.decrypt keys boosted in
  Array.iteri
    (fun i v ->
      (* Accuracy is bounded by the sine approximation of the modular
         reduction (~(2 pi m / q0)^2 / 6). *)
      if Float.abs (v -. values.(i)) > 2e-2 then
        Alcotest.failf "slot %d: %g vs %g" i v values.(i))
    dec

let test_real_bootstrap_then_compute () =
  let params, keys, ctx = boot_setup () in
  let values = Array.init params.slots (fun i -> 0.05 *. float_of_int (i mod 8)) in
  let ct = Eval.encrypt_sym keys ~level:1 values in
  let boosted = Bootstrap_real.bootstrap ctx keys ct in
  Alcotest.(check bool) "levels left to compute" true (Eval.level boosted >= 2);
  let sq = Eval.rescale keys (Eval.multcc keys boosted boosted) in
  let dec = Eval.decrypt keys sq in
  Array.iteri
    (fun i v ->
      let e = values.(i) *. values.(i) in
      if Float.abs (v -. e) > 2e-2 then Alcotest.failf "square slot %d: %g vs %g" i v e)
    dec

(* ------------------------------------------------------------------ *)
(* Reference backend                                                   *)
(* ------------------------------------------------------------------ *)

let ref_state () =
  Ref_backend.create ~slots:64 ~max_level:16 ~scale_bits:51 ()

let test_ref_semantics () =
  let st = ref_state () in
  let a = sample_values 71 64 and b = sample_values 72 64 in
  let ca = Ref_backend.encrypt st ~level:10 a in
  let cb = Ref_backend.encrypt st ~level:10 b in
  float_array_near ~tol:1e-5 "addcc"
    (Array.map2 ( +. ) a b)
    (Ref_backend.decrypt st (Ref_backend.addcc st ca cb));
  let prod = Ref_backend.rescale st (Ref_backend.multcc st ca cb) in
  Alcotest.(check int) "mult+rescale level" 9 (Ref_backend.level st prod);
  float_array_near ~tol:1e-5 "multcc" (Array.map2 ( *. ) a b) (Ref_backend.decrypt st prod);
  let rot = Ref_backend.rotate st ca ~offset:3 in
  float_array_near ~tol:1e-5 "rotate"
    (Array.init 64 (fun i -> a.((i + 3) mod 64)))
    (Ref_backend.decrypt st rot)

let test_ref_discipline () =
  let st = ref_state () in
  let a = sample_values 73 64 in
  let c10 = Ref_backend.encrypt st ~level:10 a in
  let c9 = Ref_backend.modswitch st c10 ~down:1 in
  Alcotest.(check bool) "level mismatch rejected" true
    (try
       ignore (Ref_backend.addcc st c10 c9);
       false
     with Halo_error.Backend_error _ -> true);
  (* Scale mismatch: un-rescaled product added to a fresh ciphertext. *)
  let prod = Ref_backend.multcc st c10 c10 in
  Alcotest.(check bool) "scale mismatch rejected" true
    (try
       ignore (Ref_backend.addcc st prod c10);
       false
     with Halo_error.Backend_error _ -> true);
  let boosted = Ref_backend.bootstrap st c9 ~target:16 in
  Alcotest.(check int) "bootstrap target" 16 (Ref_backend.level st boosted)

let test_ref_determinism () =
  let run () =
    let st = Ref_backend.create ~seed:99 ~slots:8 ~max_level:4 ~scale_bits:30 () in
    let ct = Ref_backend.encrypt st ~level:4 (Array.make 8 0.5) in
    Ref_backend.decrypt st (Ref_backend.multcc st ct ct)
  in
  Alcotest.(check (array (float 0.0))) "same seed, same noise" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_anchors () =
  let open Halo_cost in
  List.iter
    (fun (lv, expect) ->
      check_float (Printf.sprintf "multcc@%d" lv) expect
        (Cost_model.latency_us Cost_model.Multcc ~level:lv))
    [ (1, 758.); (5, 1146.); (10, 1974.); (15, 2528.) ];
  List.iter
    (fun (lv, expect) ->
      check_float (Printf.sprintf "rescale@%d" lv) expect
        (Cost_model.latency_us Cost_model.Rescale ~level:lv))
    [ (1, 126.); (5, 288.); (10, 516.); (15, 731.) ];
  List.iter
    (fun (t, expect) ->
      check_float (Printf.sprintf "bootstrap@%d" t) expect
        (Cost_model.bootstrap_latency_us ~target:t))
    [ (4, 294928.); (7, 339302.); (10, 384637.); (13, 423781.); (16, 463171.) ]

let test_cost_monotone () =
  let open Halo_cost in
  let ops = Cost_model.[ Addcc; Addcp; Subcc; Multcc; Multcp; Rotate; Rescale; Modswitch ] in
  List.iter
    (fun op ->
      let prev = ref 0.0 in
      for lv = 1 to 20 do
        let c = Cost_model.latency_us op ~level:lv in
        if c < !prev then
          Alcotest.failf "%s not monotone at level %d" (Cost_model.op_to_string op) lv;
        prev := c
      done)
    ops;
  let prev = ref 0.0 in
  for t = 1 to 20 do
    let c = Cost_model.bootstrap_latency_us ~target:t in
    if c < !prev then Alcotest.failf "bootstrap not monotone at target %d" t;
    prev := c
  done

let test_cost_interpolation () =
  let open Halo_cost in
  (* Level 3 lies between anchors 1 and 5: linear interpolation. *)
  check_float "multcc@3" ((758. +. 1146.) /. 2.)
    (Cost_model.latency_us Cost_model.Multcc ~level:3);
  (* bootstrap target ordering favours lower targets (Solution B-3). *)
  Alcotest.(check bool) "tuning 10 -> 7 saves 45335us" true
    (Float.abs
       (Cost_model.bootstrap_latency_us ~target:10
       -. Cost_model.bootstrap_latency_us ~target:7 -. 45335.)
    < 1.0)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "halo_ckks"
    [
      ( "modarith",
        [
          Alcotest.test_case "basic ops" `Quick test_modarith_basic;
          Alcotest.test_case "31-bit products" `Quick test_modarith_mul_no_overflow;
        ]
        @ qsuite [ test_modarith_inv_prop ] );
      ( "primes",
        [
          Alcotest.test_case "known primes" `Quick test_primes_known;
          Alcotest.test_case "ntt primes" `Quick test_ntt_primes;
          Alcotest.test_case "primitive 2n-th root" `Quick test_primitive_root;
        ] );
      ( "fft",
        [
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "direct DFT" `Quick test_fft_direct;
        ]
        @ qsuite [ test_fft_linearity ] );
      ( "ntt",
        [
          Alcotest.test_case "roundtrip" `Quick test_ntt_roundtrip;
          Alcotest.test_case "negacyclic vs schoolbook" `Quick test_ntt_negacyclic_mul;
          Alcotest.test_case "X^n = -1" `Quick test_ntt_x_times_xn1;
        ]
        @ qsuite [ test_ntt_linearity ] );
      ( "encoding",
        [
          Alcotest.test_case "roundtrip" `Quick test_encode_decode_roundtrip;
          Alcotest.test_case "additive" `Quick test_encode_additive;
          Alcotest.test_case "rotation group" `Quick test_rot_group;
        ] );
      ( "rns_poly",
        [
          Alcotest.test_case "exact rescale" `Quick test_rescale_exact;
          Alcotest.test_case "modswitch value" `Quick test_modswitch_preserves_value;
        ] );
      ( "eval",
        [
          Alcotest.test_case "encrypt/decrypt" `Quick test_encrypt_decrypt;
          Alcotest.test_case "addcc/subcc" `Quick test_addcc_subcc;
          Alcotest.test_case "addcp" `Quick test_addcp;
          Alcotest.test_case "multcc + rescale" `Quick test_multcc_rescale;
          Alcotest.test_case "multcp + rescale" `Quick test_multcp_rescale;
          Alcotest.test_case "mult chain" `Quick test_mult_chain;
          Alcotest.test_case "rotate" `Quick test_rotate;
          Alcotest.test_case "modswitch" `Quick test_modswitch_eval;
          Alcotest.test_case "level mismatch" `Quick test_level_mismatch_rejected;
          Alcotest.test_case "non-finite slot rejected" `Quick test_encode_rejects_non_finite;
          Alcotest.test_case "wide coefficient rejected" `Quick
            test_encode_rejects_wide_coefficients;
        ]
        @ qsuite [ test_homomorphic_add_prop ] );
      ( "bootstrap",
        [
          Alcotest.test_case "recovers level" `Quick test_bootstrap_recovers_level;
          Alcotest.test_case "compute after bootstrap" `Quick test_bootstrap_then_compute;
        ] );
      ( "bootstrap_real",
        [
          Alcotest.test_case "conjugation" `Quick test_conjugate;
          Alcotest.test_case "exact-scale multcp" `Quick test_multcp_exact;
          Alcotest.test_case "full pipeline roundtrip" `Slow test_real_bootstrap_roundtrip;
          Alcotest.test_case "compute after real bootstrap" `Slow test_real_bootstrap_then_compute;
        ] );
      ( "ref_backend",
        [
          Alcotest.test_case "semantics" `Quick test_ref_semantics;
          Alcotest.test_case "discipline" `Quick test_ref_discipline;
          Alcotest.test_case "determinism" `Quick test_ref_determinism;
        ] );
      ( "cost_model",
        [
          Alcotest.test_case "paper anchors" `Quick test_cost_anchors;
          Alcotest.test_case "monotone in level" `Quick test_cost_monotone;
          Alcotest.test_case "interpolation" `Quick test_cost_interpolation;
        ] );
    ]
