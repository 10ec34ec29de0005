(* Property tests for the optimized CKKS kernel layer: Shoup multiplication,
   the merged-twist NTT, and the Coeff/Eval domain-tag invariant of
   Rns_poly.  The invariant under test everywhere: the evaluation domain is
   an exact ring isomorphism on integers, so any conversion path must yield
   bit-identical coefficients -- checks compare with [Alcotest.int] or
   [float 0.0], never with a tolerance. *)

open Halo_ckks

let params () = Params.test_small ()

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Shoup multiplication                                                *)
(* ------------------------------------------------------------------ *)

let chain_moduli () =
  let p = params () in
  Array.to_list p.moduli @ Array.to_list p.specials

let test_shoup_matches_mul =
  QCheck.Test.make ~name:"mul_shoup = a * w mod m over the whole chain"
    ~count:2000
    QCheck.(triple (int_range 0 max_int) (int_range 0 max_int) (int_range 0 10))
    (fun (a, w, pick) ->
      let moduli = chain_moduli () in
      let m = List.nth moduli (pick mod List.length moduli) in
      let a = a mod m and w = w mod m in
      Modarith.mul_shoup ~m a w (Modarith.shoup ~m w) = Modarith.mul ~m a w)

let test_shoup_by_one =
  QCheck.Test.make ~name:"mul_shoup by 1 reduces any a < 2^31" ~count:2000
    QCheck.(pair (int_range 0 (Modarith.max_modulus - 1)) (int_range 0 10))
    (fun (a, pick) ->
      let moduli = chain_moduli () in
      let m = List.nth moduli (pick mod List.length moduli) in
      Modarith.mul_shoup ~m a 1 (Modarith.shoup ~m 1) = a mod m)

let test_shoup_edges () =
  List.iter
    (fun m ->
      List.iter
        (fun (a, w) ->
          Alcotest.(check int)
            (Printf.sprintf "m=%d a=%d w=%d" m a w)
            (Modarith.mul ~m a w)
            (Modarith.mul_shoup ~m a w (Modarith.shoup ~m w)))
        [ (0, 0); (m - 1, m - 1); (m - 1, 0); (0, m - 1); (1, m - 1); (m - 1, 1) ])
    (chain_moduli ())

(* ------------------------------------------------------------------ *)
(* NTT                                                                 *)
(* ------------------------------------------------------------------ *)

let rand_vec st ~n ~q = Array.init n (fun _ -> Random.State.full_int st q)

let test_ntt_roundtrip =
  QCheck.Test.make ~name:"inverse . forward = id (in place)" ~count:50
    QCheck.(pair (int_range 0 max_int) (int_range 0 3))
    (fun (seed, pick) ->
      let n = 1 lsl (4 + pick) in
      let q = Primes.ntt_prime_below ~n ((1 lsl 28) - 1) in
      let ctx = Ntt.make_ctx ~q ~n in
      let st = Random.State.make [| seed |] in
      let a = rand_vec st ~n ~q in
      let b = Array.copy a in
      Ntt.forward_in_place ctx b;
      Ntt.inverse_in_place ctx b;
      a = b)

let schoolbook_negacyclic ~q a b =
  let n = Array.length a in
  let out = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let k = i + j in
      let p = Modarith.mul ~m:q a.(i) b.(j) in
      if k < n then out.(k) <- Modarith.add ~m:q out.(k) p
      else out.(k - n) <- Modarith.sub ~m:q out.(k - n) p
    done
  done;
  out

let test_negacyclic_vs_schoolbook =
  QCheck.Test.make ~name:"negacyclic_mul = schoolbook" ~count:30
    QCheck.(int_range 0 max_int)
    (fun seed ->
      let n = 32 in
      let q = Primes.ntt_prime_below ~n ((1 lsl 28) - 1) in
      let ctx = Ntt.make_ctx ~q ~n in
      let st = Random.State.make [| seed |] in
      let a = rand_vec st ~n ~q and b = rand_vec st ~n ~q in
      Ntt.negacyclic_mul ctx a b = schoolbook_negacyclic ~q a b)

let test_ntt_length_guard () =
  let n = 16 in
  let q = Primes.ntt_prime_below ~n ((1 lsl 20) - 1) in
  let ctx = Ntt.make_ctx ~q ~n in
  Alcotest.check_raises "wrong length rejected"
    (Invalid_argument "Ntt: length mismatch") (fun () ->
      Ntt.forward_in_place ctx (Array.make (n / 2) 0))

(* Edge cases on both sides of the lazy-kernel dispatch bound (q < 2^29
   runs the lazy radix-4 kernels, larger moduli the fully reduced radix-2
   loops).  The primes are NTT-friendly up to n = 2048, so one prime serves
   every ring size below. *)
let edge_n_max = 2048

let ntt_prime_above ~n start =
  let step = 2 * n in
  let rec go q = if Primes.is_prime q then q else go (q + step) in
  go ((((start - 1) / step) + 1) * step + 1)

let edge_primes () =
  let n = edge_n_max in
  [
    ("largest below 2^29", Primes.ntt_prime_below ~n ((1 lsl 29) - 1));
    ("27-bit", Primes.ntt_prime_below ~n ((1 lsl 27) - 1));
    ("smallest above 2^29", ntt_prime_above ~n (1 lsl 29));
    ("31-bit base", Primes.ntt_prime_below ~n ((1 lsl 31) - 1));
  ]

let edge_sizes = [ 2; 4; 8; 16; 1024; 2048 ]

(* Random and all-(q - 1) inputs: the largest residue drives every lazy
   intermediate to the top of its range. *)
let edge_inputs st ~n ~q = [ ("random", rand_vec st ~n ~q); ("all q-1", Array.make n (q - 1)) ]

let test_ntt_edges () =
  let st = Random.State.make [| 0xed6e |] in
  List.iter
    (fun (pname, q) ->
      Alcotest.(check bool) (pname ^ " NTT-friendly") true ((q - 1) mod (2 * edge_n_max) = 0);
      List.iter
        (fun n ->
          let ctx = Ntt.make_ctx ~q ~n in
          List.iter
            (fun (iname, a) ->
              let tag = Printf.sprintf "%s q=%d n=%d %s" pname q n iname in
              let f = Ntt.forward ctx a in
              Alcotest.(check bool) (tag ^ ": forward in [0, q)") true
                (Array.for_all (fun x -> 0 <= x && x < q) f);
              Alcotest.(check (array int)) (tag ^ ": inverse . forward") a (Ntt.inverse ctx f);
              Alcotest.(check (array int)) (tag ^ ": forward . inverse") a
                (Ntt.forward ctx (Ntt.inverse ctx a));
              if n <= 64 then begin
                let b = rand_vec st ~n ~q in
                Alcotest.(check (array int)) (tag ^ ": negacyclic = schoolbook")
                  (schoolbook_negacyclic ~q a b) (Ntt.negacyclic_mul ctx a b);
                Alcotest.(check (array int)) (tag ^ ": squared = schoolbook")
                  (schoolbook_negacyclic ~q a a) (Ntt.negacyclic_mul ctx a a)
              end)
            (edge_inputs st ~n ~q))
        edge_sizes)
    (edge_primes ())

let test_pointwise_edges () =
  let st = Random.State.make [| 0x9017 |] in
  List.iter
    (fun (pname, q) ->
      let n = 16 in
      let ctx = Ntt.make_ctx ~q ~n in
      List.iter
        (fun (a, b) ->
          let expect = Array.map2 (fun x y -> Modarith.mul ~m:q x y) a b in
          Alcotest.(check (array int)) (pname ^ " pointwise_mul") expect (Ntt.pointwise_mul ctx a b);
          let c = Array.copy a in
          Ntt.pointwise_mul_in_place ctx c b;
          Alcotest.(check (array int)) (pname ^ " pointwise_mul_in_place") expect c)
        [
          (rand_vec st ~n ~q, rand_vec st ~n ~q);
          (Array.make n (q - 1), Array.make n (q - 1));
          (Array.init n (fun i -> q - 1 - i), Array.init n (fun i -> if i = 0 then 0 else q - i));
        ])
    (edge_primes ())

(* MD5 of forward and inverse outputs on fixed inputs, for every ciphertext
   modulus of [Params.test_deep] (15 lazy-path scale primes and the base
   prime on the exact path), the 31-bit special prime of the earlier
   one-special-prime layout (kept as an exact-path case), and the four
   special primes below 2^29 (lazy path).  The first 17 digests were
   recorded with the fully reduced radix-2 kernels before the lazy kernels
   existed, the last four with the lazy kernels of the same transform: it
   is exact, so any kernel must reproduce them. *)
let deep_chain_golden =
  [
    (2147389441, "d8aafcf7af49192e05ed4e047e24c660");
    (134176769, "13b7819c521b4e6ed4134e58e41749d1");
    (134111233, "7ab8ae546abbfc1714a8243befa1ffec");
    (134025217, "94b2de18b28b73d1cc6fff4ab0bf4232");
    (134012929, "418161f66335e34bb3310b460cacf27e");
    (133963777, "36d768384a3864b8fd574c60dbeeefef");
    (133881857, "46929db4a18247b50849936e81d3f77e");
    (133857281, "138577d7728589895f9a3fa2561283c4");
    (133844993, "022f923ac81274eb2c13d153cb5c1e85");
    (133746689, "322a6953c504ffd3a1659e609ae30b81");
    (133681153, "86d8cc575a12582689a6fb35c7c6607f");
    (133644289, "df74143893156120b61307be426a7a5f");
    (133611521, "54c4137be70fe06c08710b5f36f42eab");
    (133513217, "3829380d108a4dafec07ba6d0257c9d5");
    (133509121, "413496fe1441f5dd938ac1439a25b6c9");
    (133500929, "2f384239db5dc9ca20c7122022bcfcb7");
    (2147377153, "f930f78db56d673fdd88691bfe8390f9");
    (536813569, "3efbaf5c8a053d3110428778a71314fd");
    (536752129, "d04ab3730ac21ffaf8a1f169911c51e2");
    (536743937, "7ec9cbaee6475ca48f134f89e0412221");
    (536719361, "3b01f0b6c0899912e0e3b3c2f82f7463");
  ]

let ntt_digest ctx =
  let q = Ntt.q ctx and n = Ntt.n ctx in
  let st = Random.State.make [| 0x601d; q |] in
  let buf = Buffer.create (n * 24) in
  let add a = Array.iter (fun x -> Buffer.add_string buf (string_of_int x); Buffer.add_char buf ',') a in
  List.iter
    (fun a ->
      add (Ntt.forward ctx a);
      add (Ntt.inverse ctx a))
    [ rand_vec st ~n ~q; Array.make n (q - 1) ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_ntt_golden () =
  let p = Params.test_deep () in
  let ctx t = Params.ntt_at p ~idx:t in
  let ctxs =
    List.init p.max_level ctx
    @ Ntt.make_ctx ~q:2147377153 ~n:p.n
      :: List.init (Array.length p.specials) (fun k -> ctx (p.max_level + k))
  in
  Alcotest.(check (list (pair int string))) "test_deep forward/inverse digests"
    deep_chain_golden
    (List.map (fun ctx -> (Ntt.q ctx, ntt_digest ctx)) ctxs)

(* ------------------------------------------------------------------ *)
(* Reduction                                                           *)
(* ------------------------------------------------------------------ *)

(* [Modarith.reduce] against its definition, r in [0, q) with x = r mod q,
   checked through OCaml's truncated [mod], whose remainder keeps x's sign:
   it is r for x >= 0 and r - q (or 0) for x < 0.  Forming x - r instead
   would overflow at min_int. *)
let reduce_ok ~q x =
  let r = Modarith.reduce ~m:q x in
  0 <= r && r < q && (if x >= 0 then x mod q = r else x mod q = if r = 0 then 0 else r - q)

let low31 = Modarith.max_modulus - 1

let test_reduce_signed =
  QCheck.Test.make ~name:"reduce = signed residue over the chain and edge primes"
    ~count:2000
    QCheck.(triple int (int_range 0 20) (int_range 0 62))
    (fun (x, pick, shift) ->
      let moduli = chain_moduli () @ List.map snd (edge_primes ()) in
      let q = List.nth moduli (pick mod List.length moduli) in
      (* Magnitudes of every width, not only ~2^62. *)
      let x = x asr shift in
      reduce_ok ~q x && Modarith.reduce ~m:q x = ((x mod q) + q) mod q)

let test_reduce_edges () =
  List.iter
    (fun q ->
      List.iter
        (fun x ->
          Alcotest.(check bool) (Printf.sprintf "q=%d reduce %d" q x) true (reduce_ok ~q x))
        [
          0; 1; -1; q - 1; q; q + 1; -q; -(q - 1); -(q + 1); (q - 1) * (q - 1);
          -((q - 1) * (q - 1)); max_int; max_int - 1; min_int; min_int + 1;
        ];
      Alcotest.(check int) (Printf.sprintf "q=%d reduce -1" q) (q - 1) (Modarith.reduce ~m:q (-1));
      Alcotest.(check int) (Printf.sprintf "q=%d reduce -q" q) 0 (Modarith.reduce ~m:q (-q));
      Alcotest.(check int) (Printf.sprintf "q=%d reduce max_int" q) (max_int mod q)
        (Modarith.reduce ~m:q max_int);
      (* min_int = -(max_int + 1): its residue is q - (max_int mod q + 1),
         or 0 when max_int + 1 is a multiple of q. *)
      Alcotest.(check int) (Printf.sprintf "q=%d reduce min_int" q)
        ((q - ((max_int mod q) + 1)) mod q)
        (Modarith.reduce ~m:q min_int))
    (chain_moduli () @ List.map snd (edge_primes ()))

(* ------------------------------------------------------------------ *)
(* Rescale precomputation                                              *)
(* ------------------------------------------------------------------ *)

let test_rescale_tables () =
  let p = params () in
  for j = 0 to p.max_level - 1 do
    for i = 0 to j - 1 do
      let q = p.moduli.(i) in
      Alcotest.(check int)
        (Printf.sprintf "rescale_inv.(%d).(%d)" j i)
        (Modarith.inv ~m:q (p.moduli.(j) mod q))
        p.rescale_inv.(j).(i);
      Alcotest.(check int)
        (Printf.sprintf "rescale_inv_shoup.(%d).(%d)" j i)
        (Modarith.shoup ~m:q p.rescale_inv.(j).(i))
        p.rescale_inv_shoup.(j).(i)
    done
  done

(* Hybrid key-switching parameters: alpha = K = max 2 (ceil (L / 4)), the
   special primes are the K largest NTT primes below 2^29 that are not
   ciphertext primes, and the widest
   digit (digit 0, which holds the 31-bit base prime) has no more bits
   than P. *)
let bits_of_prod a =
  1 + int_of_float (Array.fold_left (fun acc q -> acc +. Float.log2 (float_of_int q)) 0.0 a)

(* A 29-bit base prime, which is also the largest NTT prime below 2^29. *)
let base29 () = Params.make ~log_n:10 ~max_level:8 ~base_bits:29 ~scale_bits:28 ()

let test_digit_rule () =
  List.iter
    (fun (name, (p : Params.t), alpha) ->
      Alcotest.(check int) (name ^ " alpha") alpha p.alpha;
      Alcotest.(check int) (name ^ " K = alpha") alpha (Array.length p.specials);
      Alcotest.(check int) (name ^ " digits at full level") 4 (Params.digits p ~level:p.max_level);
      Alcotest.(check int) (name ^ " chain length") (p.max_level + alpha) (Params.chain_len p);
      let rec next q =
        let q = Primes.ntt_prime_below ~n:p.n q in
        if Array.mem q p.moduli then next (q - 1) else q
      in
      Array.iteri
        (fun k q ->
          let expect = next (if k = 0 then (1 lsl 29) - 1 else p.specials.(k - 1) - 1) in
          Alcotest.(check int) (Printf.sprintf "%s special %d" name k) expect q;
          Alcotest.(check bool) (name ^ " special not a ciphertext prime") false
            (Array.mem q p.moduli))
        p.specials;
      Alcotest.(check bool) (name ^ " log2 P >= log2 Q_0") true
        (bits_of_prod p.specials >= bits_of_prod (Array.sub p.moduli 0 alpha)))
    [
      ("test_small", params (), 2);
      ("test_deep", Params.test_deep (), 4);
      ("base_bits 29", base29 (), 2);
    ];
  (* The 29-bit base prime is the largest NTT prime below 2^29: the
     specials skip it. *)
  let b = base29 () in
  Alcotest.(check int) "base_bits 29: base is the first candidate"
    (Primes.ntt_prime_below ~n:b.n ((1 lsl 29) - 1))
    b.moduli.(0);
  let short = Params.make ~log_n:6 ~max_level:3 ~base_bits:31 ~scale_bits:27 () in
  Alcotest.(check int) "L = 3: alpha floor of 2" 2 short.alpha;
  Alcotest.(check int) "L = 3: two digits" 2 (Params.digits short ~level:3)

(* Scale primes wider than the special primes break log2 P >= log2 Q_I:
   rejected, never built. *)
let test_noise_precondition () =
  List.iter
    (fun (max_level, scale_bits) ->
      match Params.make ~log_n:10 ~max_level ~base_bits:31 ~scale_bits () with
      | _ -> Alcotest.failf "L=%d scale_bits=%d accepted" max_level scale_bits
      | exception Invalid_argument _ -> ())
    [ (8, 28); (16, 29); (16, 30) ]

(* Base-conversion tables against one-reduction-per-step recomputation. *)
let test_keyswitch_tables () =
  List.iter
    (fun (p : Params.t) ->
      let chain = Array.append p.moduli p.specials in
      let prod ~m a = Array.fold_left (fun acc q -> Modarith.mul ~m acc (q mod m)) 1 a in
      let check_basis tag (b : Params.basis) =
        let src = Array.map (fun t -> chain.(t)) b.src in
        let without i = Array.of_list (List.filteri (fun i' _ -> i' <> i) (Array.to_list src)) in
        Array.iteri
          (fun t m ->
            Alcotest.(check int) (Printf.sprintf "%s neg_prod.(%d)" tag t)
              (Modarith.neg ~m (prod ~m src)) b.neg_prod.(t);
            Array.iteri
              (fun i _ ->
                Alcotest.(check int) (Printf.sprintf "%s hat.(%d).(%d)" tag t i)
                  (prod ~m (without i)) b.hat.(t).(i))
              src)
          chain;
        Array.iteri
          (fun i q ->
            Alcotest.(check int) (Printf.sprintf "%s hat_inv.(%d)" tag i)
              (Modarith.inv ~m:q (prod ~m:q (without i))) b.hat_inv.(i))
          src
      in
      Array.iteri
        (fun j widths ->
          Array.iteri
            (fun s b ->
              Alcotest.(check (array int)) (Printf.sprintf "mod_up.(%d).(%d) primes" j s)
                (Array.init (s + 1) (fun i -> (j * p.alpha) + i)) b.Params.src;
              check_basis (Printf.sprintf "n=%d mod_up.(%d).(%d)" p.n j s) b)
            widths)
        p.mod_up;
      check_basis (Printf.sprintf "n=%d mod_down" p.n) p.mod_down;
      Array.iteri
        (fun t q ->
          Alcotest.(check int) (Printf.sprintf "p_inv.(%d)" t)
            (Modarith.inv ~m:q (prod ~m:q p.specials)) p.p_inv.(t))
        p.moduli)
    [ params (); Params.test_deep (); base29 () ]

(* ------------------------------------------------------------------ *)
(* Coeff/Eval domain invariant                                         *)
(* ------------------------------------------------------------------ *)

let rand_poly st p ~level =
  Rns_poly.of_residues
    (Array.init level (fun i -> rand_vec st ~n:p.Params.n ~q:p.Params.moduli.(i)))

let check_res msg (a : Rns_poly.t) (b : Rns_poly.t) =
  Alcotest.(check bool) msg true (a.res = b.res)

let test_domain_roundtrip =
  QCheck.Test.make ~name:"to_coeff . to_eval = id" ~count:20
    QCheck.(int_range 0 max_int)
    (fun seed ->
      let p = params () in
      let st = Random.State.make [| seed |] in
      let a = rand_poly st p ~level:4 in
      (Rns_poly.to_coeff p (Rns_poly.to_eval p a)).res = (a : Rns_poly.t).res)

let test_domain_ops_agree () =
  (* add, mul and automorphism computed NTT-resident must match the same
     ops computed via coefficient-domain conversions, bit for bit. *)
  let p = params () in
  let st = Random.State.make [| 0xd0a1 |] in
  let a = rand_poly st p ~level:4 and b = rand_poly st p ~level:4 in
  let ae = Rns_poly.to_eval p a and be = Rns_poly.to_eval p b in
  check_res "add" (Rns_poly.add p a b)
    (Rns_poly.to_coeff p (Rns_poly.add p ae be));
  check_res "mul from coeff vs mul resident"
    (Rns_poly.to_coeff p (Rns_poly.mul p a b))
    (Rns_poly.to_coeff p (Rns_poly.mul p ae be));
  let k = Keys.galois_element p ~offset:3 in
  check_res "automorphism" (Rns_poly.automorphism p ~k a)
    (Rns_poly.to_coeff p (Rns_poly.automorphism p ~k ae));
  let conj = (2 * p.n) - 1 in
  check_res "conjugation automorphism" (Rns_poly.automorphism p ~k:conj a)
    (Rns_poly.to_coeff p (Rns_poly.automorphism p ~k:conj ae));
  check_res "rescale of resident operand" (Rns_poly.rescale_last p a)
    (Rns_poly.to_coeff p (Rns_poly.rescale_last p ae))

(* Rescale keeps its operand's domain at every level of test_deep, and the
   resident result is the coefficient result's NTT image: random residues,
   and a dropped limb at both sides of the centering threshold q_l / 2. *)
let test_rescale_resident () =
  let p = Params.test_deep () in
  let st = Random.State.make [| 0x5ca1e |] in
  for level = 2 to p.max_level do
    let ql = p.moduli.(level - 1) in
    let edge =
      Rns_poly.of_residues
        (Array.init level (fun i ->
             if i < level - 1 then Array.make p.n (p.moduli.(i) - 1)
             else Array.init p.n (fun j -> (ql / 2) - 1 + (j mod 3))))
    in
    List.iter
      (fun (name, a) ->
        let tag = Printf.sprintf "level %d %s" level name in
        let c = Rns_poly.rescale_last p a and e = Rns_poly.rescale_last p (Rns_poly.to_eval p a) in
        Alcotest.(check bool) (tag ^ ": Coeff in, Coeff out") true (Rns_poly.domain c = Rns_poly.Coeff);
        Alcotest.(check bool) (tag ^ ": Eval in, Eval out") true (Rns_poly.domain e = Rns_poly.Eval);
        Alcotest.(check int) (tag ^ ": level") (level - 1) (Rns_poly.level e);
        check_res (tag ^ ": residues") c (Rns_poly.to_coeff p e))
      [ ("random", rand_poly st p ~level); ("centering edge", edge) ]
  done

let test_automorphism_normalization () =
  let p = params () in
  let st = Random.State.make [| 0xa2f |] in
  let a = rand_poly st p ~level:3 in
  let k = 5 in
  let shifted = k + (2 * 2 * p.n) and negative = k - (2 * 2 * p.n) in
  check_res "k + 4n" (Rns_poly.automorphism p ~k a)
    (Rns_poly.automorphism p ~k:shifted a);
  check_res "k - 4n" (Rns_poly.automorphism p ~k a)
    (Rns_poly.automorphism p ~k:negative a)

let test_to_level () =
  let p = params () in
  let st = Random.State.make [| 0x71e |] in
  let a = rand_poly st p ~level:5 in
  let dropped = Rns_poly.to_level p ~level:2 a in
  Alcotest.(check int) "level" 2 (Rns_poly.level dropped);
  check_res "prefix preserved" dropped
    (Rns_poly.of_residues (Array.sub (a : Rns_poly.t).res 0 2));
  Alcotest.check_raises "cannot raise"
    (Invalid_argument "Rns_poly.to_level: cannot raise level") (fun () ->
      ignore (Rns_poly.to_level p ~level:6 a));
  Alcotest.check_raises "level < 1"
    (Invalid_argument "Rns_poly.to_level: level < 1") (fun () ->
      ignore (Rns_poly.to_level p ~level:0 a))

(* ------------------------------------------------------------------ *)
(* End-to-end: NTT-resident pipeline vs forced-coefficient pipeline    *)
(* ------------------------------------------------------------------ *)

let keys_memo = ref None

let test_keys () =
  match !keys_memo with
  | Some k -> k
  | None ->
    let k = Keys.keygen (params ()) in
    keys_memo := Some k;
    k

(* Rebuild a ciphertext with both parts forced to the coefficient domain:
   the NTT is exact, so interleaving these forced conversions anywhere in a
   pipeline must not change a single bit of the result. *)
let force_coeff (keys : Keys.t) ct =
  let p = keys.params in
  Eval.of_parts
    ~c0:(Rns_poly.to_coeff p (ct : Eval.ct).c0)
    ~c1:(Rns_poly.to_coeff p ct.c1)
    ~scale:(Eval.scale ct)

let test_pipeline_domain_equivalence () =
  let keys = test_keys () in
  let p = keys.params in
  let rng = Random.State.make [| 0xcafe |] in
  let va = Array.init p.slots (fun _ -> Random.State.float rng 1.0 -. 0.5) in
  let vb = Array.init p.slots (fun _ -> Random.State.float rng 1.0 -. 0.5) in
  (* Encryption and first-use rotation keygen draw from keys.rng, so share
     the ciphertexts and warm the rotation key; everything downstream is
     deterministic and must agree bit for bit across domain choices. *)
  let ca = Eval.encrypt keys ~level:4 va in
  let cb = Eval.encrypt keys ~level:4 vb in
  ignore (Keys.rotation_key keys ~offset:1);
  let run ~forced =
    let f ct = if forced then force_coeff keys ct else ct in
    let s = f (Eval.addcc keys (f ca) (f cb)) in
    let m = f (Eval.rescale keys (f (Eval.multcc keys s (f cb)))) in
    let r = f (Eval.rotate keys m ~offset:1) in
    let d = f (Eval.rescale keys (f (Eval.multcp keys r va))) in
    Eval.decrypt keys (f (Eval.subcc keys d (f (Eval.negate keys d))))
  in
  let resident = run ~forced:false in
  let forced = run ~forced:true in
  Array.iteri
    (fun i x -> Alcotest.(check (float 0.0)) (Printf.sprintf "slot %d" i) x forced.(i))
    resident

(* ------------------------------------------------------------------ *)
(* Key switching: lazily reduced kernels vs a naive reference         *)
(* ------------------------------------------------------------------ *)

(* The hybrid key switch spelled out with Modarith.mul / add / reduce /
   center, one full reduction per step and every constant recomputed from
   the primes: the semantics the lazily reduced kernels of Keys must
   reproduce bit for bit. *)
module Naive = struct
  let chain_q (p : Params.t) t = Ntt.q (Params.ntt_at p ~idx:t)
  let specials (p : Params.t) = Array.length p.specials

  let positions (p : Params.t) l =
    Array.init (l + specials p) (fun pos -> if pos < l then pos else p.max_level + pos - l)

  let prod ~m a = Array.fold_left (fun acc q -> Modarith.mul ~m acc (Modarith.reduce ~m q)) 1 a
  let without a i = Array.of_list (List.filteri (fun i' _ -> i' <> i) (Array.to_list a))

  (* Centered fast base conversion of the residue vectors [xs] (mod the
     primes [src], product B) to modulus m:
     sum_i center(x_i * (B / b_i)^-1 mod b_i) * (B / b_i) mod m. *)
  let convert ~src xs m =
    let n = Array.length xs.(0) in
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

  (* ModUp: digits.(pos).(j) is the NTT image at position pos of digit j
     (primes j*alpha .. min((j+1)*alpha, l) - 1) converted to that
     position's modulus -- at the digit's own primes too, where the
     conversion returns the input residue. *)
  let decompose (p : Params.t) d =
    let d = Rns_poly.to_coeff p d in
    let l = Rns_poly.level d in
    let beta = (l + p.alpha - 1) / p.alpha in
    Array.map
      (fun t ->
        Array.init beta (fun j ->
            let own = Array.init (min p.alpha (l - (j * p.alpha))) (fun i -> (j * p.alpha) + i) in
            Ntt.forward (Params.ntt_at p ~idx:t)
              (convert
                 ~src:(Array.map (fun i -> p.moduli.(i)) own)
                 (Array.map (fun i -> d.res.(i)) own)
                 (chain_q p t))))
      (positions p l)

  (* One member's inner product per position and key half, each term
     multiplied by [coeff.(pos).(j)] when given, added into [acc]. *)
  let accumulate (p : Params.t) ?(perm = Array.init p.n Fun.id) ?coeff (k0, k1) digits acc =
    Array.iteri
      (fun pos t ->
        let q = chain_q p t in
        List.iter
          (fun (kh, out) ->
            for j = 0 to p.n - 1 do
              let s = ref 0 in
              Array.iteri
                (fun i d -> s := Modarith.add ~m:q !s (Modarith.mul ~m:q d.(perm.(j)) kh.(i).(t).(j)))
                digits.(pos);
              let s = match coeff with None -> !s | Some c -> Modarith.mul ~m:q c.(pos).(j) !s in
              out.(j) <- Modarith.add ~m:q out.(j) s
            done)
          [ (k0, fst acc.(pos)); (k1, snd acc.(pos)) ])
      (positions p (Array.length digits - specials p))

  let create (p : Params.t) digits =
    Array.map (fun _ -> (Array.make p.n 0, Array.make p.n 0)) digits

  (* The Q side of a group: sum over members of c0 (Eval residues) read
     through each member's permutation, times its row when weighted. *)
  let qside (p : Params.t) (c0 : Rns_poly.t) members =
    Rns_poly.of_residues ~domain:Rns_poly.Eval
      (Array.mapi
         (fun t r ->
           let q = p.moduli.(t) in
           Array.init p.n (fun j ->
               List.fold_left
                 (fun acc (perm, coeff) ->
                   let x = r.(perm.(j)) in
                   let x = match coeff with None -> x | Some c -> Modarith.mul ~m:q x c.(t).(j) in
                   Modarith.add ~m:q acc x)
                 0 members))
         c0.res)

  (* ModDown in the coefficient domain: (u_t - convert(u_specials)) * P^-1. *)
  let finish (p : Params.t) acc =
    let l = Array.length acc - specials p in
    let half f =
      let u = Array.mapi (fun pos t -> Ntt.inverse (Params.ntt_at p ~idx:t) (f acc.(pos))) (positions p l) in
      Rns_poly.of_residues
        (Array.init l (fun t ->
             let q = p.moduli.(t) in
             let corr = convert ~src:p.specials (Array.sub u l (specials p)) q in
             let p_inv = Modarith.inv ~m:q (prod ~m:q p.specials) in
             Array.init p.n (fun j -> Modarith.mul ~m:q (Modarith.sub ~m:q u.(t).(j) corr.(j)) p_inv)))
    in
    (half fst, half snd)
end

let other_keys = ref []

let keys_for (p : Params.t) =
  if p == params () then test_keys ()
  else
    match List.assq_opt p !other_keys with
    | Some k -> k
    | None ->
      let k = Keys.keygen p in
      other_keys := (p, k) :: !other_keys;
      k

(* A chain whose rescale primes sit just below 2^30, the widest primes at
   which four raw digit/key products still fit the MAC's one-reduction
   bound, under a 31-bit base prime, where they do not.  [Params.make]
   refuses it (its digits outgrow P, which only costs noise), so it is
   built from its moduli. *)
let tight_chain =
  lazy
    (let log_n = 6 in
     let n = 1 lsl log_n in
     let base = Primes.ntt_prime_below ~n ((1 lsl 31) - 1) in
     Params.of_moduli ~log_n ~scale_bits:30
       (Array.of_list (base :: Primes.ntt_primes ~n ~bits:30 ~count:7)))

(* Per extended-chain position residues: random, or all q - 1. *)
let chain_vecs st (p : Params.t) ~worst ~level =
  Array.map
    (fun t ->
      let q = Naive.chain_q p t in
      if worst then Array.make p.n (q - 1) else rand_vec st ~n:p.n ~q)
    (Naive.positions p level)

(* A switching key (dnum digits over the L + K extended-chain positions)
   with every residue random, or every residue q - 1 (with all-(q - 1)
   digits this hits the bound of the unreduced MAC sum). *)
let switch_key_of st (p : Params.t) ~worst =
  let half () =
    Array.init (Params.digits p ~level:p.max_level) (fun _ ->
        chain_vecs st p ~worst ~level:p.max_level)
  in
  let k0 = half () and k1 = half () in
  (Keys.switch_key_of_raw p ~k0 ~k1, (k0, k1))

(* Key-switch inputs at a level: random coefficients; the Eval-domain
   constant -1 (all q - 1 in every slot, the digits' own limbs at the top of
   the MAC range); and the coefficient-domain polynomial whose scaled limbs
   x * (Q_I / q_t)^-1 are all q_t - 1 (every centering correction fires and
   every conversion product is at its largest). *)
let ks_inputs st (p : Params.t) ~level =
  let scaled_top =
    Array.init level (fun t ->
        let j = t / p.alpha in
        let own = Array.init (min p.alpha (level - (j * p.alpha))) (fun i -> p.moduli.((j * p.alpha) + i)) in
        let q = p.moduli.(t) in
        let hat = Naive.prod ~m:q (Naive.without own (t - (j * p.alpha))) in
        Array.make p.n (Modarith.mul ~m:q (q - 1) hat))
  in
  [
    ("random", false, rand_poly st p ~level);
    ( "all q-1",
      true,
      Rns_poly.of_residues ~domain:Rns_poly.Eval
        (Array.init level (fun i -> Array.make p.n (p.moduli.(i) - 1))) );
    ("scaled q-1", true, Rns_poly.of_residues scaled_top);
  ]

(* Residue equality after lifting both sides to the coefficient domain. *)
let check_pair p msg (a0, a1) (b0, b1) =
  check_res (msg ^ " u0") (Rns_poly.to_coeff p a0) (Rns_poly.to_coeff p b0);
  check_res (msg ^ " u1") (Rns_poly.to_coeff p a1) (Rns_poly.to_coeff p b1)

(* One group through {!Keys.switch_group} against the naive reference:
   [size] switching members (the first unrotated, the others rotated by
   distinct offsets), then one unrotated Q-side-only member when
   [size > 1], with c0 = the key-switch input [d] lifted to Eval.  Every
   weighted member gets its own plaintext rows. *)
let check_group (p : Params.t) keys st ~tag ~worst ~level ~size ~weighted ~sk ~raw ~d ~dec ~digits =
  let perm_of k = Ntt.eval_perm (Params.ntt_at p ~idx:0) ~k in
  let row () = if weighted then Some (chain_vecs st p ~worst ~level) else None in
  let switching =
    List.init size (fun i ->
        ((if i = 0 then 1 else Keys.galois_element p ~offset:((2 * i) - 1)), row ()))
  in
  let q_only = if size > 1 then [ (1, row ()) ] else [] in
  let c0 = Rns_poly.to_eval p d in
  let weight = Option.map (Keys.weight_of_rows p ~level) in
  let members =
    List.map (fun (k, coeff) -> { Keys.galois = k; switch = Some (sk, dec); coeff = weight coeff }) switching
    @ List.map (fun (k, coeff) -> { Keys.galois = k; switch = None; coeff = weight coeff }) q_only
  in
  let acc = Naive.create p digits in
  List.iter
    (fun (k, coeff) -> Naive.accumulate p ~perm:(perm_of k) ?coeff raw digits acc)
    switching;
  let u0, u1 = Naive.finish p acc in
  let qside =
    Naive.qside p c0
      (List.map (fun (k, coeff) -> (perm_of k, coeff)) (switching @ q_only))
  in
  let want = (Rns_poly.add p (Rns_poly.to_eval p u0) qside, u1) in
  let msg = Printf.sprintf "%s group of %d %s" tag size (if weighted then "weighted" else "pure") in
  check_pair p msg (Keys.switch_group keys ~c0 members) want;
  check_pair p (msg ^ ", one domain")
    (Domain_pool.sequentially (fun () -> Keys.switch_group keys ~c0 members))
    want

let test_keyswitch_kernels (p : Params.t) () =
  let keys = keys_for p in
  let st = Random.State.make [| 0x5e1f; p.n |] in
  let perm_of k = Ntt.eval_perm (Params.ntt_at p ~idx:0) ~k in
  List.iter
    (fun level ->
      List.iter
        (fun (iname, worst, d) ->
          let tag = Printf.sprintf "n=%d level=%d %s" p.n level iname in
          let sk, raw = switch_key_of st p ~worst in
          let dec = Keys.decompose keys d in
          let digits = Naive.decompose p d in
          let one_member ?perm ?coeff () =
            let acc = Naive.create p digits in
            Naive.accumulate p ?perm ?coeff raw digits acc;
            Naive.finish p acc
          in
          check_pair p (tag ^ " apply") (Keys.apply keys sk dec) (one_member ());
          let k = Keys.galois_element p ~offset:3 in
          check_pair p (tag ^ " apply_rotated")
            (Keys.apply_rotated keys sk ~k dec)
            (one_member ~perm:(perm_of k) ());
          (* A pure and a weighted group of three members, one unrotated
             and key-switching, one unrotated and Q-side only. *)
          List.iter
            (fun weighted ->
              check_group p keys st ~tag ~worst ~level ~size:2 ~weighted ~sk ~raw ~d ~dec ~digits)
            [ false; true ])
        (ks_inputs st p ~level))
    (List.sort_uniq compare [ 1; p.alpha; p.alpha + 1; p.max_level ])

(* Groups of 1, 3, 15, 16, 17 and 33 switching members, pure and weighted,
   on the worst-case inputs, at levels 1, alpha, alpha + 1 and L: at a
   29-bit special prime the MAC sums about 16 / dnum pure or 3 weighted
   terms before it must reduce, at a 27-bit rescale prime 15 or 16
   weighted ones, and the 31-bit base prime reduces per product and takes
   no companion row, so every reduction schedule of the group MAC runs. *)
let test_group_sizes (p : Params.t) () =
  let keys = keys_for p in
  let st = Random.State.make [| 0x6a0c; p.n |] in
  List.iter
    (fun level ->
      List.iter
        (fun (iname, worst, d) ->
          if worst then begin
            let tag = Printf.sprintf "n=%d level=%d %s" p.n level iname in
            let sk, raw = switch_key_of st p ~worst in
            let dec = Keys.decompose keys d in
            let digits = Naive.decompose p d in
            List.iter
              (fun size ->
                List.iter
                  (fun weighted ->
                    check_group p keys st ~tag ~worst ~level ~size ~weighted ~sk ~raw ~d ~dec
                      ~digits)
                  [ false; true ])
              [ 1; 3; 15; 16; 17; 33 ]
          end)
        (ks_inputs st p ~level))
    (List.sort_uniq compare [ 1; p.alpha; p.alpha + 1; p.max_level ])

(* The schedules [test_group_sizes] relies on: at test_small's rescale
   primes the weighted (companion-row) bound lies between 14 and 17
   members, at its special primes it is 3 and the four-digit pure one is
   below 15; the base prime takes no companion row, reduces per product
   once a level has two digits, and per weighted term. *)
let test_lazy_bounds () =
  let p = params () in
  let digits = Params.digits p ~level:p.max_level in
  Array.iteri
    (fun t q ->
      if t > 0 then
        Alcotest.(check bool) (Printf.sprintf "rescale prime %d weighted: 14 < B <= 17" q) true
          (let b = Keys.weighted_terms ~q ~digits in
           b > 14 && b <= 17))
    p.moduli;
  Array.iter
    (fun q ->
      Alcotest.(check int) (Printf.sprintf "special %d weighted" q) 3 (Keys.weighted_terms ~q ~digits);
      Alcotest.(check bool) (Printf.sprintf "special %d pure, four digits: B < 15" q) true
        (Keys.lazy_terms ~q ~per_term:4 < 15))
    p.specials;
  let base = p.moduli.(0) in
  Alcotest.(check int) "base prime, two digits" 0 (Keys.lazy_terms ~q:base ~per_term:2);
  Alcotest.(check int) "base prime, no companion row" 0 (Keys.weighted_terms ~q:base ~digits:1);
  Alcotest.(check int) "base prime, weighted" 1 (Keys.lazy_terms ~q:base ~per_term:1)

(* [Keys.raw_mac] against the bound it stands for, d * (q - 1)^2 + q < 2^62,
   evaluated in unsigned 64-bit arithmetic (the sum reaches 2^64 for 31-bit
   primes): at sample moduli, and at every position and level of the tight
   chain, where full-level MACs sum four products raw at every rescale and
   special prime and reduce per product at the base prime. *)
let test_raw_mac_branches () =
  let p = Lazy.force tight_chain in
  let predicted ~q ~digits =
    let qm1 = Int64.of_int (q - 1) in
    Int64.unsigned_compare
      Int64.(add (mul (of_int digits) (mul qm1 qm1)) (of_int q))
      (Int64.shift_left 1L 62)
    < 0
  in
  let check ~q ~digits tag =
    Alcotest.(check bool)
      (Printf.sprintf "%s q=%d digits=%d" tag q digits)
      (predicted ~q ~digits) (Keys.raw_mac ~q ~digits)
  in
  List.iter
    (fun q -> List.iter (fun digits -> check ~q ~digits "sample") [ 1; 2; 3; 4 ])
    [ 97; (1 lsl 29) - 3; (1 lsl 30) - 35; (1 lsl 30) + 3; (1 lsl 31) - 1 ];
  for level = 1 to p.max_level do
    let digits = Params.digits p ~level in
    Array.iter
      (fun t -> check ~q:(Naive.chain_q p t) ~digits (Printf.sprintf "level %d position %d" level t))
      (Naive.positions p level)
  done;
  let dnum = Params.digits p ~level:p.max_level in
  Alcotest.(check int) "four digits at full level" 4 dnum;
  Array.iter
    (fun t ->
      let q = Naive.chain_q p t in
      if t > 0 && t < p.max_level then
        Alcotest.(check bool) (Printf.sprintf "rescale prime %d just below 2^30" q) true
          (q < 1 lsl 30 && q > (1 lsl 30) - (1 lsl 20));
      Alcotest.(check bool) (Printf.sprintf "position %d sums raw" t) (t > 0)
        (Keys.raw_mac ~q ~digits:dnum))
    (Naive.positions p p.max_level);
  (* The kernel test's all-(q - 1) case meets the bound on this chain: the
     Eval-domain constant -1 lifts to q - 1 in every digit and slot, so with
     all-(q - 1) keys a full-level MAC sums 4 (q - 1)^2 onto its
     accumulator. *)
  let minus_one =
    Rns_poly.of_residues ~domain:Rns_poly.Eval
      (Array.init p.max_level (fun i -> Array.make p.n (p.moduli.(i) - 1)))
  in
  let positions = Naive.positions p p.max_level in
  Array.iteri
    (fun pos digits ->
      let q = Naive.chain_q p positions.(pos) in
      Array.iter
        (fun d ->
          Alcotest.(check bool) (Printf.sprintf "position %d digits all q - 1" positions.(pos))
            true (Array.for_all (fun x -> x = q - 1) d))
        digits)
    (Naive.decompose p minus_one)

(* A chain of 36 levels: alpha = K = 9, and the ModDown sum of nine
   29-bit specials into the 31-bit base prime is the one (basis, target)
   pair whose worst case passes 2^62. *)
let chunked_chain =
  lazy (Params.make ~log_n:6 ~max_level:36 ~base_bits:31 ~scale_bits:27 ())

(* Every (basis, target) pair of a chain: the ModUp bases of every digit
   and width, then ModDown, each into every extended-chain position. *)
let conversion_pairs (p : Params.t) =
  let chain = Array.append p.moduli p.specials in
  let bases =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun j widths -> Array.to_list (Array.mapi (fun s b -> (Printf.sprintf "mod_up.(%d).(%d)" j s, b)) widths))
            p.mod_up))
    @ [ ("mod_down", p.mod_down) ]
  in
  List.concat_map
    (fun (name, b) -> List.init (Array.length chain) (fun t -> (name, (b : Params.basis), t, chain.(t))))
    bases

(* The chunk ends [conversion_chunks] must produce, in unsigned 64-bit
   arithmetic: a chunk takes the next source while its worst case -- the
   carried remainder bound m - 1 after the first chunk, plus
   half_i * (m - 1) per source -- stays below 2^62. *)
let predicted_chunks ~half m =
  let limit = Int64.shift_left 1L 62 in
  let below x = Int64.unsigned_compare x limit < 0 in
  let ends = ref [] and bound = ref 0L in
  Array.iteri
    (fun i h ->
      let term = Int64.(mul (of_int h) (of_int (m - 1))) in
      if below (Int64.add !bound term) then bound := Int64.add !bound term
      else begin
        ends := i :: !ends;
        bound := Int64.(add (of_int (m - 1)) term)
      end)
    half;
  Array.of_list (List.rev (Array.length half :: !ends))

let test_conversion_chunks () =
  List.iter
    (fun (name, (p : Params.t), chunked) ->
      let split = ref [] in
      List.iter
        (fun (bname, (b : Params.basis), t, m) ->
          let tag = Printf.sprintf "%s %s -> %d" name bname t in
          Alcotest.(check (array int)) (tag ^ ": half") (Array.map (fun b -> b / 2) b.src_q) b.half;
          Alcotest.(check (array int)) (tag ^ ": chunks") (predicted_chunks ~half:b.half m) b.chunks.(t);
          if Array.length b.chunks.(t) > 1 then split := (bname, t) :: !split)
        (conversion_pairs p);
      Alcotest.(check (list (pair string int))) (name ^ ": pairs that chunk") chunked !split)
    [
      ("test_small", params (), []);
      ("test_deep", Params.test_deep (), []);
      ("rescale primes below 2^30", Lazy.force tight_chain, []);
      ("alpha = 8", Params.make ~log_n:6 ~max_level:32 ~base_bits:31 ~scale_bits:27 (), []);
      ("alpha = 9", Lazy.force chunked_chain, [ ("mod_down", 0) ]);
    ];
  Alcotest.(check (array int)) "alpha = 9: ModDown into the base prime closes after 8 sources"
    [| 8; 9 |] (Lazy.force chunked_chain).mod_down.chunks.(0)

(* The one-pass conversion against a reference that reduces after every
   step, sum_i center(y_i) * (B / b_i) mod m with every constant recomputed
   from the primes, for every (basis, target) pair.  Slots 0 .. 3 put every
   source at one centering edge at once -- 0, b - 1, b / 2 (the largest
   positive centred value) and b / 2 + 1 (the most negative) -- so the
   signed sum reaches its worst case both ways; the other slots are
   random. *)
let test_conversion_reference () =
  let st = Random.State.make [| 0xc0de |] in
  let len = 32 in
  List.iter
    (fun (name, (p : Params.t)) ->
      List.iter
        (fun (bname, (b : Params.basis), t, m) ->
          let ys =
            Array.map
              (fun bi ->
                Array.init len (fun j ->
                    match j with
                    | 0 -> 0
                    | 1 -> bi - 1
                    | 2 -> bi / 2
                    | 3 -> (bi / 2) + 1
                    | _ -> Random.State.full_int st bi))
              b.src_q
          in
          let want =
            Array.init len (fun j ->
                let acc = ref 0 in
                Array.iteri
                  (fun i bi ->
                    let hat = Naive.prod ~m (Naive.without b.src_q i) in
                    let y = Modarith.center ~m:bi ys.(i).(j) in
                    acc := Modarith.add ~m !acc (Modarith.mul ~m (Modarith.reduce ~m y) hat))
                  b.src_q;
                !acc)
          in
          let got = Array.make len 0 in
          Keys.convert p b ys t got;
          Alcotest.(check (array int)) (Printf.sprintf "%s %s -> %d" name bname t) want got)
        (conversion_pairs p))
    [
      ("test_small", params ());
      ("test_deep", Params.test_deep ());
      ("rescale primes below 2^30", Lazy.force tight_chain);
      ("alpha = 9", Lazy.force chunked_chain);
    ]

(* [Keys.weighted_terms] against its bound in unsigned 64-bit arithmetic
   (digits * (q - 1)^2 reaches 2^64 for 31-bit primes): 0 where the raw sum
   is not a native int, else the largest B with
   B * ((x_max lsr 31) + min x_max (2^31 - 1)) * (q - 1) + q < 2^62, at
   every position and level of the four chains.  The base prime never takes
   a companion row; every other position of test_deep does. *)
let test_weighted_bound () =
  let limit = Int64.shift_left 1L 62 in
  let predicted ~q ~digits =
    let qm1 = Int64.of_int (q - 1) in
    let x = Int64.(mul (of_int digits) (mul qm1 qm1)) in
    if Int64.unsigned_compare (Int64.add x (Int64.of_int q)) limit >= 0 then 0
    else begin
      let lo = if Int64.compare x (Int64.of_int low31) < 0 then x else Int64.of_int low31 in
      let per = Int64.(add (mul (shift_right_logical x 31) qm1) (mul lo qm1)) in
      let room = Int64.(sub (sub limit 1L) (of_int q)) in
      if Int64.unsigned_compare per room > 0 then 0 else Int64.to_int (Int64.unsigned_div room per)
    end
  in
  List.iter
    (fun (name, (p : Params.t)) ->
      for level = 1 to p.max_level do
        let digits = Params.digits p ~level in
        Array.iter
          (fun t ->
            let q = Naive.chain_q p t in
            let b = Keys.weighted_terms ~q ~digits in
            Alcotest.(check int) (Printf.sprintf "%s level %d position %d" name level t)
              (predicted ~q ~digits) b;
            if t = 0 then Alcotest.(check int) (name ^ ": base prime falls back") 0 b;
            if name = "test_deep" && t > 0 then
              Alcotest.(check bool) (Printf.sprintf "test_deep position %d takes a companion" t) true (b >= 1))
          (Naive.positions p level)
      done)
    [
      ("test_small", params ());
      ("test_deep", Params.test_deep ());
      ("rescale primes below 2^30", Lazy.force tight_chain);
      ("alpha = 9", Lazy.force chunked_chain);
    ]

(* The group kernel writes only limbs it allocates: its inputs (the
   decomposition, the key, c0 and the plaintext rows) keep their bits, and
   a second call returns the first call's bits in fresh limbs.  A weighted
   member stripped of its companion rows is refused. *)
let test_group_fresh_limbs () =
  let p = params () in
  let keys = test_keys () in
  let st = Random.State.make [| 0xf1 |] in
  let sk, _ = switch_key_of st p ~worst:false in
  let c0 = Rns_poly.to_eval p (rand_poly st p ~level:5) in
  let dec = Keys.decompose keys (Rns_poly.to_eval p (rand_poly st p ~level:5)) in
  let coeff = chain_vecs st p ~worst:false ~level:5 in
  let w = Keys.weight_of_rows p ~level:5 coeff in
  let members =
    [
      { Keys.galois = Keys.galois_element p ~offset:2; switch = Some (sk, dec); coeff = Some w };
      { Keys.galois = 1; switch = None; coeff = Some w };
    ]
  in
  let copy x = Array.map Array.copy x in
  let held = (copy c0.res, copy coeff, Keys.switch_key_raw sk |> fun (a, b) -> (Array.map copy a, Array.map copy b)) in
  let dec_bits = Marshal.to_string dec [] in
  let ((u0, u1) as first) = Keys.switch_group keys ~c0 members in
  let bits = (copy u0.res, copy u1.res) in
  let ((v0, v1) as second) = Keys.switch_group keys ~c0 members in
  Alcotest.(check bool) "inputs keep their bits" true
    ((copy c0.res, copy coeff, Keys.switch_key_raw sk |> fun (a, b) -> (Array.map copy a, Array.map copy b)) = held);
  Alcotest.(check bool) "decomposition keeps its bits" true (Marshal.to_string dec [] = dec_bits);
  Alcotest.(check bool) "first result keeps its bits" true ((u0.res, u1.res) = bits);
  Alcotest.(check bool) "fresh limbs" true (u0.res.(0) != v0.res.(0) && u1.res.(0) != v1.res.(0));
  check_pair p "second call = first" first second;
  let bare = { w with Keys.comp = Array.map (fun _ -> [||]) w.Keys.comp } in
  Alcotest.check_raises "a weighted member needs its companion rows"
    (Invalid_argument "Keys.switch_group: missing companion row") (fun () ->
      ignore
        (Keys.switch_group keys
           [ { Keys.galois = Keys.galois_element p ~offset:2; switch = Some (sk, dec); coeff = Some bare } ]))

(* Key-switch error at every level of test_deep, measured exactly: a
   rotation decrypts to aut(m) + e_ks and a relinearized product to
   m_a * m_b + e_ks, where aut(m) and m_a * m_b are computed from the
   operands' decryptions mod Q.  The bound is the worst case stated in
   params.ml,
     |e_ks| <= dnum * n * (alpha * Q_I / 2) * B_e / P + (K / 2) * (1 + n),
   with Q_I < 2P and B_e = 24: the Box-Muller sampler draws u1 >= 1e-12,
   so |z| <= sqrt (2 ln 10^12) < 7.44 and |e| <= round (7.44 * 3.2).
   That is a worst-case sanity check (about 8e5 at n = 2048), not a
   noise-regression guard: a key switch several times noisier than today's
   still passes it.  The error must also be one integer: its centered
   residue at every ciphertext prime equals the base prime's, so a ModDown
   wrong only at some limb t >= 1 fails too. *)
let ks_error_bound (p : Params.t) =
  let b_e = 24.0 and n = float_of_int p.n in
  let dnum = float_of_int (Params.digits p ~level:p.max_level) in
  let alpha = float_of_int p.alpha and k = float_of_int (Array.length p.specials) in
  (dnum *. n *. alpha *. b_e) +. (k /. 2.0 *. (1.0 +. n))

let test_keyswitch_error_per_level () =
  let p = Params.test_deep () in
  let keys = keys_for p in
  let bound = ks_error_bound p in
  let rng = Random.State.make [| 0xe7703 |] in
  let phase (ct : Eval.ct) =
    Rns_poly.add p ct.c0
      (Rns_poly.mul p ct.c1 (Rns_poly.to_level p ~level:(Eval.level ct) keys.s_ntt))
  in
  let max_err a b =
    let diff = (Rns_poly.to_coeff p (Rns_poly.sub p a b) : Rns_poly.t).res in
    let e = Array.map (fun c -> Modarith.center ~m:p.moduli.(0) c) diff.(0) in
    Array.iteri
      (fun t r ->
        Array.iteri
          (fun j c ->
            if Modarith.center ~m:p.moduli.(t) c <> e.(j) then
              Alcotest.failf "limb %d coefficient %d: error %d, base limb %d" t j
                (Modarith.center ~m:p.moduli.(t) c) e.(j))
          r)
      diff;
    Array.fold_left (fun acc x -> Float.max acc (Float.abs (float_of_int x))) 0.0 e
  in
  let k = Keys.galois_element p ~offset:1 in
  for level = 1 to p.max_level do
    let v () = Array.init p.slots (fun _ -> Random.State.float rng 1.0 -. 0.5) in
    let a = Eval.encrypt keys ~level (v ()) and b = Eval.encrypt keys ~level (v ()) in
    let rot = max_err (phase (Eval.rotate keys a ~offset:1)) (Rns_poly.automorphism p ~k (phase a)) in
    let mul = max_err (phase (Eval.multcc keys a b)) (Rns_poly.mul p (phase a) (phase b)) in
    List.iter
      (fun (op, e) ->
        if e > bound then
          Alcotest.failf "level %d %s: key-switch error %g above the bound %g" level op e bound)
      [ ("rotate", rot); ("multcc", mul) ]
  done

(* Decomposing an Eval-domain polynomial copies the diagonal digits instead
   of re-transforming them; the result must equal, residue for residue,
   decomposing the same polynomial forced to the coefficient domain. *)
let test_decompose_domains (p : Params.t) () =
  let keys = keys_for p in
  let st = Random.State.make [| 0xdec0; p.n |] in
  List.iter
    (fun level ->
      let a = rand_poly st p ~level in
      let ae = Rns_poly.to_eval p a in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d level=%d" p.n level)
        true
        (Keys.decompose keys ae = Keys.decompose keys a))
    [ 1; 3; p.max_level ]

(* Lazy (one shared decomposition) = eager (one per member) on test_deep at
   every group size of [test_group_sizes], pure and weighted (members at
   offsets 0 .. size - 1), at levels alpha + 1 and L, on the pool and on one
   domain: residues, domain tags and scale bits. *)
let test_rot_sum_lazy_eager_sizes () =
  let p = Params.test_deep () in
  let keys = keys_for p in
  let rng = Random.State.make [| 0x1a2e |] in
  let v () = Array.init p.slots (fun _ -> Random.State.float rng 1.0 -. 0.5) in
  let same msg (a : Eval.ct) (b : Eval.ct) =
    check_res (msg ^ " c0") a.c0 b.c0;
    check_res (msg ^ " c1") a.c1 b.c1;
    Alcotest.(check bool) (msg ^ " domains") true
      (Rns_poly.domain a.c0 = Rns_poly.domain b.c0 && Rns_poly.domain a.c1 = Rns_poly.domain b.c1);
    Alcotest.(check bool) (msg ^ " scale") true
      (Int64.bits_of_float (Eval.scale a) = Int64.bits_of_float (Eval.scale b))
  in
  List.iter
    (fun level ->
      let ct = Eval.encrypt keys ~level (v ()) in
      List.iter
        (fun size ->
          List.iter
            (fun weighted ->
              let terms = List.init size (fun i -> (i, if weighted then Some (v ()) else None)) in
              let tag =
                Printf.sprintf "level %d, %d %s members" level size (if weighted then "weighted" else "pure")
              in
              let lazy_ = Eval.rot_sum keys ~mode:`Lazy ct ~terms in
              same (tag ^ ", lazy = eager") lazy_ (Eval.rot_sum keys ~mode:`Eager ct ~terms);
              same (tag ^ ", one domain") lazy_
                (Domain_pool.sequentially (fun () -> Eval.rot_sum keys ~mode:`Lazy ct ~terms)))
            [ false; true ])
        [ 1; 3; 15; 16; 17; 33 ])
    [ p.alpha + 1; p.max_level ]

(* n >= 512, so decompose / apply / switch_group really fan out over the
   pool; a sequential run must agree bit for bit. *)
let test_keyswitch_pool_sizes () =
  let p = Params.test_deep () in
  let keys = keys_for p in
  let st = Random.State.make [| 0x9001 |] in
  let sk, _ = switch_key_of st p ~worst:false in
  let d = Rns_poly.to_eval p (rand_poly st p ~level:p.max_level) in
  let coeff = Some (Keys.weight_of_rows p ~level:p.max_level (chain_vecs st p ~worst:false ~level:p.max_level)) in
  let k = Keys.galois_element p ~offset:7 in
  let run () =
    let dec = Keys.decompose keys d in
    let group =
      Keys.switch_group keys ~c0:d
        [
          { Keys.galois = k; switch = Some (sk, dec); coeff };
          { Keys.galois = 1; switch = Some (sk, dec); coeff };
        ]
    in
    (dec, Keys.apply keys sk dec, Keys.apply_rotated keys sk ~k dec, group)
  in
  let dec_s, a_s, r_s, m_s = Domain_pool.sequentially run in
  let dec_p, a_p, r_p, m_p = run () in
  Alcotest.(check bool) "decompose" true (dec_s = dec_p);
  check_pair p "apply" a_s a_p;
  check_pair p "apply_rotated" r_s r_p;
  check_pair p "group" m_s m_p

(* ------------------------------------------------------------------ *)
(* Plaintext path                                                      *)
(* ------------------------------------------------------------------ *)

(* Every output of the plaintext path at test_deep, digested per kind: the
   public key as persisted, encoder roundings, decoded floats as IEEE bit
   patterns (so a -0.0 counts), ciphertext residues with their domain
   tags.  Slot inputs mix random values, signed zeros and zero-padded
   short vectors.  The key set's RNG is pinned for the run and restored
   after, so the digests do not depend on test order. *)
let plaintext_outputs () =
  let p = Params.test_deep () in
  let keys = keys_for p in
  let saved = Keys.rng_state keys in
  Keys.set_rng_state keys (Random.State.make [| 0x9a1d |]);
  let st = Random.State.make [| 0x9a1e |] in
  let real i = if i mod 97 = 3 then -0.0 else Random.State.float st 2.0 -. 1.0 in
  let reals len = Array.init len real in
  let complexes len = Array.init len (fun i -> { Complex.re = real i; im = real (i + 1) }) in
  let buf = Buffer.create (1 lsl 16) in
  let ints a = Array.iter (fun x -> Buffer.add_string buf (string_of_int x); Buffer.add_char buf ',') a in
  let floats a = ints (Array.map (fun x -> Int64.to_int (Int64.bits_of_float x)) a) in
  let poly (x : Rns_poly.t) =
    Buffer.add_char buf (match x.domain with Rns_poly.Coeff -> 'c' | Rns_poly.Eval -> 'e');
    Array.iter ints x.res
  in
  let ct (c : Eval.ct) = poly c.c0; poly c.c1; floats [| c.scale |] in
  let digest name f =
    Buffer.clear buf;
    f ();
    (name, Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  let pk = digest "public key" (fun () -> poly keys.pk0; poly keys.pk1) in
  let enc_c =
    digest "encode_centered" (fun () ->
        ints (Encoding.encode_centered p ~scale:p.scale (complexes p.slots));
        ints (Encoding.encode_centered p ~scale:0x1p40 (complexes 17)))
  in
  let enc_r =
    digest "encode_real_centered" (fun () ->
        ints (Encoding.encode_real_centered p ~scale:p.scale (reals p.slots));
        ints (Encoding.encode_real_centered p ~scale:0x1p20 (reals 100)))
  in
  let dec =
    digest "decode" (fun () ->
        let m = Encoding.encode p ~level:4 ~scale:p.scale (complexes p.slots) in
        let r = rand_poly st p ~level:2 in
        let impulse = Rns_poly.of_centered_coeffs p ~level:1 (Array.init p.n (fun k -> if k = 5 then -3 else 0)) in
        List.iter
          (fun x ->
            Array.iter
              (fun (c : Complex.t) -> floats [| c.re; c.im |])
              (Encoding.decode p ~scale:p.scale x))
          [ m; Rns_poly.to_eval p m; r; Rns_poly.zero p ~level:1; impulse ])
  in
  let cts = ref [] in
  let encrypt name f =
    digest name (fun () ->
        List.iter
          (fun (level, len) ->
            let c = f keys ~level (reals len) in
            cts := c :: !cts;
            ct c)
          [ (p.max_level, p.slots); (5, 33); (1, p.slots) ])
  in
  let enc = encrypt "encrypt" Eval.encrypt in
  let enc_sym = encrypt "encrypt_sym" Eval.encrypt_sym in
  let cts = List.rev !cts in
  let decs = digest "decrypt" (fun () -> List.iter (fun c -> floats (Eval.decrypt keys c)) cts) in
  let mulp =
    digest "multcp" (fun () -> List.iter (fun c -> ct (Eval.multcp keys c (reals 40))) cts)
  in
  let negs = digest "negate" (fun () -> List.iter (fun c -> ct (Eval.negate keys c)) cts) in
  let boot =
    digest "oracle bootstrap" (fun () ->
        List.iter
          (fun c ->
            let b = Bootstrap_oracle.bootstrap keys c ~target:p.max_level in
            ct b;
            floats (Eval.decrypt keys b))
          [ List.nth cts 1; List.nth cts 4 ])
  in
  Keys.set_rng_state keys saved;
  [ pk; enc_c; enc_r; dec; enc; enc_sym; decs; mulp; negs; boot ]

(* Computed with the boxed Complex.t encoder, per-call twiddles and
   hardware-division embedding that the unboxed path replaced. *)
let plaintext_golden =
  [
    ("public key", "97d529522355045778a4c96e5b98d6c6");
    ("encode_centered", "4737ab83aebdf854975c9d93ca156e09");
    ("encode_real_centered", "7ab34c852e160a1afae24d8e1b86e224");
    ("decode", "7249f22c57587cc79eea9ed51ab1bb79");
    ("encrypt", "a917b16e4794fbc87ee300977beac644");
    ("encrypt_sym", "f57665c2cb0f1d8057b61aa477058429");
    ("decrypt", "cda31c7df69c22d9f087260de555895d");
    ("multcp", "0dbd519a7277163b8bf6f43b96d5afa8");
    ("negate", "2404cc66fde989d2ec237ac65cd7e6d8");
    ("oracle bootstrap", "bc589a2925f489e5a9127518819b8502");
  ]

let test_plaintext_golden () =
  Alcotest.(check (list (pair string string))) "test_deep plaintext digests"
    plaintext_golden (plaintext_outputs ())

(* Encoding embeds and lifts limbs across the pool; a sequential run must
   agree bit for bit. *)
let test_plaintext_pool_sizes () =
  Alcotest.(check (list (pair string string))) "sequential = pooled"
    (Domain_pool.sequentially plaintext_outputs)
    (plaintext_outputs ())

(* ------------------------------------------------------------------ *)
(* Lattice op sequence                                                 *)
(* ------------------------------------------------------------------ *)

(* One digest per op kind over a fixed sequence on test_deep: encryption,
   multcc + rescale, multcp, addcp on an Eval and a Coeff c0, rotate,
   rotate_many, pure and weighted rot_sum (1, 3 and 16 members, lazy and
   eager), the oracle bootstrap and decryption.  Ciphertexts are hashed as
   coefficient-domain residues with their scale bits, decryptions as IEEE
   bit patterns.  The key set's RNG is pinned for the run and restored
   after, so the digests do not depend on test order. *)
let lattice_outputs () =
  let p = Params.test_deep () in
  let keys = keys_for p in
  let saved = Keys.rng_state keys in
  Keys.set_rng_state keys (Random.State.make [| 0x1a771 |]);
  let st = Random.State.make [| 0x1a772 |] in
  let v () = Array.init p.slots (fun _ -> Random.State.float st 2.0 -. 1.0) in
  let buf = Buffer.create (1 lsl 16) in
  let ints a = Array.iter (fun x -> Buffer.add_string buf (string_of_int x); Buffer.add_char buf ',') a in
  let floats a = ints (Array.map (fun x -> Int64.to_int (Int64.bits_of_float x)) a) in
  let ct (c : Eval.ct) =
    Array.iter ints (Rns_poly.to_coeff p c.c0).res;
    Array.iter ints (Rns_poly.to_coeff p c.c1).res;
    floats [| Eval.scale c |]
  in
  let digest name cts =
    Buffer.clear buf;
    List.iter ct cts;
    (name, Digest.to_hex (Digest.string (Buffer.contents buf)))
  in
  let a = Eval.encrypt keys ~level:p.max_level (v ()) in
  let b = Eval.encrypt keys ~level:p.max_level (v ()) in
  let low = Eval.encrypt keys ~level:5 (v ()) in
  let m = Eval.rescale keys (Eval.multcc keys a b) in
  let mp = Eval.rescale keys (Eval.multcp keys m (v ())) in
  let coeff_c0 =
    Eval.of_parts ~c0:(Rns_poly.to_coeff p a.c0) ~c1:a.c1 ~scale:(Eval.scale a)
  in
  let adds = [ Eval.addcp keys a (v ()); Eval.addcp keys coeff_c0 (v ()) ] in
  let rot = [ Eval.rotate keys a ~offset:1; Eval.rotate keys low ~offset:(-3) ] in
  let many = Eval.rotate_many keys m ~offsets:[ 0; 1; 5; -2 ] in
  let sums weighted =
    List.concat_map
      (fun (c, size) ->
        let terms = List.init size (fun i -> ((if i = 1 then 0 else (3 * i) - 1), if weighted then Some (v ()) else None)) in
        List.map (fun mode -> Eval.rot_sum keys ~mode c ~terms) [ `Lazy; `Eager ])
      [ (a, 1); (a, 3); (a, 16); (low, 3); (mp, 16) ]
  in
  let pure = sums false and weighted = sums true in
  let boot =
    List.map (fun c -> Bootstrap_oracle.bootstrap keys c ~target:p.max_level) [ mp; low ]
  in
  let decrypted = a :: mp :: low :: (many @ weighted @ boot) in
  let digests =
    [
      digest "encrypt" [ a; b; low ];
      digest "multcc + rescale" [ m ];
      digest "multcp + rescale" [ mp ];
      digest "addcp" adds;
      digest "rotate" rot;
      digest "rotate_many" many;
      digest "rot_sum pure" pure;
      digest "rot_sum weighted" weighted;
      digest "oracle bootstrap" boot;
      (Buffer.clear buf;
       List.iter (fun c -> floats (Eval.decrypt keys c)) decrypted;
       ("decrypt", Digest.to_hex (Digest.string (Buffer.contents buf))));
    ]
  in
  Keys.set_rng_state keys saved;
  digests

(* Recorded before the key-switch kernels reduced by hardware division,
   the conversion summed its sources in one pass and weighted members
   gained companion rows; every kernel since must reproduce them. *)
let lattice_golden =
  [
    ("encrypt", "383810274b7321c7b4f4963ee1cea3b2");
    ("multcc + rescale", "557c00af6ac690a6e371b7a73faae9e7");
    ("multcp + rescale", "596ec4a5c009635f47f3af67ad4e332d");
    ("addcp", "8ce1363654ee72d7f0c081e6510d089e");
    ("rotate", "307e6f68dd4a6a5bf5d54a660f405228");
    ("rotate_many", "08d87738a2ea2be196d4a1745c21ea9f");
    ("rot_sum pure", "f16c6f55cecbfad117c2b168650a69f8");
    ("rot_sum weighted", "037b87db3b258f79ade069ed9b0337c9");
    ("oracle bootstrap", "789f2192a2763d32605c5cd9ee3af1bc");
    ("decrypt", "bb92609a65b15232d81ef3fbbe43fefb");
  ]

let test_lattice_golden () =
  Alcotest.(check (list (pair string string))) "test_deep op digests" lattice_golden
    (lattice_outputs ())

let test_lattice_golden_sequential () =
  Alcotest.(check (list (pair string string))) "test_deep op digests, one domain" lattice_golden
    (Domain_pool.sequentially lattice_outputs)

(* ------------------------------------------------------------------ *)
(* Reference-backend noise kernel                                      *)
(* ------------------------------------------------------------------ *)

(* A frozen copy of the reference backend's per-slot noise path, from
   before the draw/transform kernel: one Box–Muller Gaussian per slot
   through a closure, [Array.map]/[map2] in slot order.  It runs on its
   own copy of the backend's RNG, so after each op the two RNGs must sit at
   the same position. *)
module Frozen_ref = struct
  type ct = { data : float array; level : int; scale_bits : float; noise_est : float }

  type sigmas = { enc : float; mult : float; boot : float; resc : float }

  let units = Halo_cost.Noise_units.default

  let gaussian rng sigma =
    let u1 = Random.State.float rng 1.0 +. 1e-12 in
    let u2 = Random.State.float rng 1.0 in
    sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) *. sigma

  let noisy rng sigma v = v +. (Float.abs v *. gaussian rng sigma)

  let encrypt rng s ~scale_bits ~level values =
    let data = Array.map (fun v -> v +. gaussian rng s.enc) values in
    { data; level; scale_bits; noise_est = units.enc }

  let multcc rng s a b =
    {
      a with
      data = Array.map2 (fun x y -> noisy rng s.mult (x *. y)) a.data b.data;
      scale_bits = a.scale_bits +. b.scale_bits;
      noise_est = a.noise_est +. b.noise_est +. units.keyswitch;
    }

  let multcp rng s ~scale_bits a values =
    {
      a with
      data = Array.map2 (fun x y -> noisy rng s.mult (x *. y)) a.data values;
      scale_bits = a.scale_bits +. scale_bits;
      noise_est = a.noise_est +. units.keyswitch;
    }

  let rescale rng s ~scale_bits a =
    {
      data = Array.map (fun v -> v +. gaussian rng s.resc) a.data;
      level = a.level - 1;
      scale_bits = a.scale_bits -. scale_bits;
      noise_est = a.noise_est +. units.rescale;
    }

  let bootstrap rng s ~scale_bits a ~target =
    {
      data = Array.map (fun v -> v +. gaussian rng s.boot) a.data;
      level = target;
      scale_bits;
      noise_est = units.bootstrap;
    }

  let rotate a ~offset =
    let n = Array.length a.data in
    let shift = ((offset mod n) + n) mod n in
    let ks = if offset = 0 then 0.0 else units.keyswitch in
    {
      a with
      data = Array.init n (fun i -> a.data.((i + shift) mod n));
      noise_est = a.noise_est +. ks;
    }

  let addcc a b =
    { a with data = Array.map2 ( +. ) a.data b.data; noise_est = Float.max a.noise_est b.noise_est }

  (* Weighted terms only: rotations, then multcp + rescale per member in
     term order, then the add chain. *)
  let rot_sum rng s ~scale_bits a ~terms =
    let members =
      List.map
        (fun (o, m) -> rescale rng s ~scale_bits (multcp rng s ~scale_bits (rotate a ~offset:o) m))
        terms
    in
    List.fold_left addcc (List.hd members) (List.tl members)
end

let noise_sigmas =
  [
    ( "default sigmas",
      { Frozen_ref.enc = 1e-7; mult = 1e-8; boot = 1e-5; resc = Float.ldexp 1.0 (-25) } );
    ("zero sigmas", { Frozen_ref.enc = 0.0; mult = 0.0; boot = 0.0; resc = 0.0 });
  ]

(* encrypt, multcc, multcp, rescale, bootstrap and a weighted rot_sum on the
   backend and on the frozen copy, from the same RNG position: every output
   (IEEE bits, level, scale bits, noise estimate) and the RNG position after
   each op must match. *)
let check_noise_kernel ~tag ~slots (s : Frozen_ref.sigmas) =
  let scale_bits = 30 in
  let sb = float_of_int scale_bits in
  let st =
    Ref_backend.create ~seed:(slots + 7) ~enc_noise:s.enc ~mult_noise:s.mult ~boot_noise:s.boot
      ~rescale_noise:s.resc ~slots ~max_level:4 ~scale_bits ()
  in
  let rng = Ref_backend.rng_state st in
  let vec k = Array.init slots (fun i -> sin (float_of_int ((k * slots) + i)) *. 0.75) in
  let bits a = Array.map Int64.bits_of_float a in
  let check op (got : Ref_backend.ct) (want : Frozen_ref.ct) =
    let msg = Printf.sprintf "%s, %d slots: %s" tag slots op in
    Alcotest.(check (array int64)) (msg ^ " bits") (bits want.data) (bits got.data);
    Alcotest.(check int) (msg ^ " level") want.level got.ct_level;
    Alcotest.(check int64) (msg ^ " scale bits")
      (Int64.bits_of_float want.scale_bits) (Int64.bits_of_float got.scale_bits);
    Alcotest.(check int64) (msg ^ " noise_est")
      (Int64.bits_of_float want.noise_est) (Int64.bits_of_float got.noise_est);
    Alcotest.(check int) (msg ^ " next draw")
      (Random.State.bits (Random.State.copy rng))
      (Random.State.bits (Ref_backend.rng_state st));
    (got, want)
  in
  let x, fx =
    check "encrypt" (Ref_backend.encrypt st ~level:4 (vec 0))
      (Frozen_ref.encrypt rng s ~scale_bits:sb ~level:4 (vec 0))
  in
  let y, fy =
    check "encrypt" (Ref_backend.encrypt st ~level:4 (vec 1))
      (Frozen_ref.encrypt rng s ~scale_bits:sb ~level:4 (vec 1))
  in
  let m, fm = check "multcc" (Ref_backend.multcc st x y) (Frozen_ref.multcc rng s fx fy) in
  let r, fr =
    check "rescale" (Ref_backend.rescale st m) (Frozen_ref.rescale rng s ~scale_bits:sb fm)
  in
  let p, fp =
    check "multcp" (Ref_backend.multcp st r (vec 2))
      (Frozen_ref.multcp rng s ~scale_bits:sb fr (vec 2))
  in
  let b, fb =
    check "bootstrap" (Ref_backend.bootstrap st p ~target:4)
      (Frozen_ref.bootstrap rng s ~scale_bits:sb fp ~target:4)
  in
  let terms = [ (0, vec 3); (1, vec 4); (-3, vec 5); (slots + 2, vec 6) ] in
  ignore
    (check "weighted rot_sum"
       (Ref_backend.rot_sum st b ~terms:(List.map (fun (o, w) -> (o, Some w)) terms))
       (Frozen_ref.rot_sum rng s ~scale_bits:sb fb ~terms))

let noise_slot_counts = [ 1; 255; 256; 257; 1000; 1024; 4096 ]

let test_ref_noise_kernel ~sequential () =
  List.iter
    (fun (tag, s) ->
      List.iter
        (fun slots ->
          let run () = check_noise_kernel ~tag ~slots s in
          if sequential then Domain_pool.sequentially run else run ())
        noise_slot_counts)
    noise_sigmas

(* The noiseless ops: closure-free loops and blits against the per-slot
   definitions, bit for bit. *)
let test_ref_noiseless_ops () =
  List.iter
    (fun slots ->
      let st = Ref_backend.create ~slots ~max_level:3 ~scale_bits:30 () in
      let vec k = Array.init slots (fun i -> cos (float_of_int ((k * slots) + i))) in
      let ct k = Ref_backend.make_ct ~data:(vec k) ~level:2 ~scale_bits:30.0 () in
      let a = ct 0 and b = ct 1 in
      let bits = Array.map Int64.bits_of_float in
      let check op want (got : Ref_backend.ct) =
        Alcotest.(check (array int64))
          (Printf.sprintf "%d slots: %s" slots op)
          (bits want) (bits got.data)
      in
      check "addcc" (Array.map2 ( +. ) a.data b.data) (Ref_backend.addcc st a b);
      check "subcc" (Array.map2 ( -. ) a.data b.data) (Ref_backend.subcc st a b);
      check "addcp" (Array.map2 ( +. ) a.data (vec 2)) (Ref_backend.addcp st a (vec 2));
      check "negate" (Array.map Float.neg a.data) (Ref_backend.negate st a);
      let offsets = [ 0; 1; -1; 5; slots; -slots - 3; 3 * slots + 1 ] in
      let fa = { Frozen_ref.data = a.data; level = 2; scale_bits = 30.0; noise_est = 0.0 } in
      List.iter
        (fun offset ->
          check
            (Printf.sprintf "rotate %d" offset)
            (Frozen_ref.rotate fa ~offset).data
            (Ref_backend.rotate st a ~offset))
        offsets;
      let n = slots in
      let want =
        let shifts = Array.of_list (List.map (fun o -> ((o mod n) + n) mod n) offsets) in
        Array.init n (fun i ->
            let acc = ref a.data.((i + shifts.(0)) mod n) in
            for g = 1 to Array.length shifts - 1 do
              acc := !acc +. a.data.((i + shifts.(g)) mod n)
            done;
            !acc)
      in
      Alcotest.(check (array int64))
        (Printf.sprintf "%d slots: sum_rotations" slots)
        (bits want)
        (bits (Slots.sum_rotations a.data ~offsets)))
    noise_slot_counts

(* [Ref_backend.uniform] is [Random.State.float rng 1.0] restated without
   allocation: at every slot count the noise kernel draws for, two draws
   per slot give the same values, and the RNG ends at the same position. *)
let test_uniform_draws () =
  List.iter
    (fun slots ->
      let rng = Random.State.make [| 0x5eed; slots |] in
      let mine = Random.State.copy rng in
      let want = Array.init (2 * slots) (fun _ -> Random.State.float rng 1.0) in
      let got = Array.init (2 * slots) (fun _ -> Ref_backend.uniform mine) in
      Alcotest.(check (array int64))
        (Printf.sprintf "%d slots: draws" slots)
        (Array.map Int64.bits_of_float want) (Array.map Int64.bits_of_float got);
      Alcotest.(check int64)
        (Printf.sprintf "%d slots: next draw" slots)
        (Random.State.bits64 rng) (Random.State.bits64 mine))
    [ 1; 255; 1024; 4096 ]

(* Clear_backend (the interpreter's cleartext semantics) runs the same slot
   kernels: every op against its per-slot definition, bit for bit. *)
let test_clear_ops () =
  let module C = Halo_runtime.Clear_backend in
  let bits = Array.map Int64.bits_of_float in
  List.iter
    (fun n ->
      let st = C.create ~slots:n in
      let vec k = Array.init n (fun i -> cos (float_of_int ((k * n) + i)) *. 1.25) in
      let a = vec 0 and b = vec 1 in
      let check op want got =
        Alcotest.(check (array int64)) (Printf.sprintf "%d slots: %s" n op) (bits want) (bits got)
      in
      check "addcc" (Array.map2 ( +. ) a b) (C.addcc st a b);
      check "subcc" (Array.map2 ( -. ) a b) (C.subcc st a b);
      check "addcp" (Array.map2 ( +. ) a b) (C.addcp st a b);
      check "multcc" (Array.map2 ( *. ) a b) (C.multcc st a b);
      check "multcp" (Array.map2 ( *. ) a b) (C.multcp st a b);
      check "negate" (Array.map Float.neg a) (C.negate st a);
      let wrap i = ((i mod n) + n) mod n in
      let rot o = Array.init n (fun i -> a.(wrap (i + o))) in
      let offsets = [ 0; 1; -1; n / 2; -(n / 2); n + 3; -(n + 3) ] in
      List.iter
        (fun o -> check (Printf.sprintf "rotate %d" o) (rot o) (C.rotate st a ~offset:o))
        offsets;
      List.iter2
        (fun o got -> check (Printf.sprintf "rotate_many %d" o) (rot o) got)
        offsets (C.rotate_many st a ~offsets);
      let fold term =
        Array.init n (fun i ->
            List.fold_left
              (fun acc (g, o) -> acc +. term g o i)
              (term 0 (List.hd offsets) i)
              (List.tl (List.mapi (fun g o -> (g, o)) offsets)))
      in
      check "pure rot_sum" (fold (fun _ o i -> a.(wrap (i + o))))
        (C.rot_sum st a ~terms:(List.map (fun o -> (o, None)) offsets));
      let weights = Array.init (List.length offsets) (fun g -> vec (g + 2)) in
      check "weighted rot_sum"
        (fold (fun g o i -> a.(wrap (i + o)) *. weights.(g).(i)))
        (C.rot_sum st a ~terms:(List.mapi (fun g o -> (o, Some weights.(g))) offsets)))
    noise_slot_counts

(* [Slots.replicate] (the interpreter's input replication and pack masks)
   at every power-of-two period of a slot count, for short and full
   inputs. *)
let test_replicate () =
  let n = 64 in
  let rec periods p = if p > n then [] else p :: periods (2 * p) in
  List.iter
    (fun period ->
      List.iter
        (fun len ->
          let x = Array.init len (fun i -> float_of_int (i + 1)) in
          let want =
            Array.init n (fun i ->
                let j = i mod period in
                if j < len then x.(j) else 0.0)
          in
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "period %d, %d values" period len)
            want (Slots.replicate x ~period n))
        (List.sort_uniq compare [ 1; (period / 2) + 1; period ]))
    (periods 1)

(* Binary kernels refuse unequal lengths on both backends. *)
let test_unequal_lengths () =
  let module C = Halo_runtime.Clear_backend in
  let st = C.create ~slots:8 in
  let a = Array.make 8 1.0 and b = Array.make 7 1.0 in
  let raises op f =
    match f () with
    | (_ : float array) -> Alcotest.failf "%s accepted unequal lengths" op
    | exception Invalid_argument _ -> ()
  in
  raises "Slots.add" (fun () -> Slots.add a b);
  raises "Slots.sub" (fun () -> Slots.sub b a);
  raises "Slots.mul" (fun () -> Slots.mul a b);
  raises "Clear addcc" (fun () -> C.addcc st a b);
  raises "Clear subcc" (fun () -> C.subcc st a b);
  raises "Clear multcp" (fun () -> C.multcp st b a);
  raises "Clear weighted rot_sum" (fun () -> C.rot_sum st a ~terms:[ (1, Some b) ]);
  let rs = Ref_backend.create ~slots:8 ~max_level:3 ~scale_bits:30 () in
  let ct data = Ref_backend.make_ct ~data ~level:2 ~scale_bits:30.0 () in
  raises "Ref addcc" (fun () -> (Ref_backend.addcc rs (ct a) (ct b)).data);
  raises "Ref subcc" (fun () -> (Ref_backend.subcc rs (ct a) (ct b)).data)

(* ------------------------------------------------------------------ *)
(* Domain pool                                                         *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_pool_exception_recovery () =
  (* A task exception must propagate to the caller after the pool quiesces,
     and the pool must stay fully usable: subsequent parallel calls still
     run every index exactly once.  (With HALO_DOMAINS=1 this degenerates
     to the sequential path, which must satisfy the same contract.) *)
  (match Domain_pool.parallel_for ~n:64 (fun i -> if i = 13 then raise (Boom i)) with
   | () -> Alcotest.fail "the task exception was swallowed"
   | exception Boom 13 -> ()
   | exception e ->
     Alcotest.failf "expected Boom 13, got %s" (Printexc.to_string e));
  for round = 1 to 3 do
    let hits = Array.init 64 (fun _ -> Atomic.make 0) in
    Domain_pool.parallel_for ~n:64 (fun i -> Atomic.incr hits.(i));
    Array.iteri
      (fun i h ->
        Alcotest.(check int)
          (Printf.sprintf "round %d: index %d ran once" round i)
          1 (Atomic.get h))
      hits
  done

(* A served wave runs batches on the pool, and the calling domain drains
   the wave too: a reference op it runs there posts a nested job from the
   caller (workers degrade theirs to plain loops).  Each wave index runs a
   seeded op sequence on its own backend state; the nested calls must
   complete with the sequential run's bits, an exception raised inside a
   nested job must reach the caller, and the pool must stay usable. *)
let test_pool_nested_from_caller () =
  let wave = 6 and slots = 1024 in
  let run k =
    let st = Ref_backend.create ~seed:k ~slots ~max_level:3 ~scale_bits:30 () in
    let v = Array.init slots (fun i -> float_of_int (i + k) /. 1024.0) in
    let x = Ref_backend.encrypt st ~level:3 v in
    let y = Ref_backend.rescale st (Ref_backend.multcc st x x) in
    let z = Ref_backend.multcp st y v in
    Array.map Int64.bits_of_float (Ref_backend.bootstrap st z ~target:3).data
  in
  let wave_outputs () =
    let out = Array.make wave [||] in
    Domain_pool.parallel_for ~n:wave (fun k -> out.(k) <- run k);
    out
  in
  let sequential = Domain_pool.sequentially wave_outputs in
  for round = 1 to 3 do
    Alcotest.(check (array (array int64)))
      (Printf.sprintf "round %d: nested = sequential" round)
      sequential (wave_outputs ())
  done;
  (match
     Domain_pool.parallel_for ~n:wave (fun k ->
         Domain_pool.parallel_for ~n:16 (fun i -> if i = 11 then raise (Boom k)))
   with
   | () -> Alcotest.fail "the nested task exception was swallowed"
   | exception Boom _ -> ()
   | exception e -> Alcotest.failf "expected Boom, got %s" (Printexc.to_string e));
  let hits = Array.init 64 (fun _ -> Atomic.make 0) in
  Domain_pool.parallel_for ~n:8 (fun k ->
      Domain_pool.parallel_for ~n:8 (fun i -> Atomic.incr hits.((8 * k) + i)));
  Array.iteri
    (fun i h -> Alcotest.(check int) (Printf.sprintf "index %d ran once" i) 1 (Atomic.get h))
    hits;
  Alcotest.(check (array (array int64))) "after the failure: nested = sequential" sequential
    (wave_outputs ())

let () =
  Alcotest.run "halo_kernels"
    [
      ( "shoup",
        Alcotest.test_case "edge cases" `Quick test_shoup_edges
        :: qsuite [ test_shoup_matches_mul; test_shoup_by_one ] );
      ( "ntt",
        Alcotest.test_case "length guard" `Quick test_ntt_length_guard
        :: Alcotest.test_case "edges around the lazy bound" `Quick test_ntt_edges
        :: Alcotest.test_case "pointwise products at the edges" `Quick test_pointwise_edges
        :: Alcotest.test_case "test_deep golden digests" `Quick test_ntt_golden
        :: qsuite [ test_ntt_roundtrip; test_negacyclic_vs_schoolbook ] );
      ( "reduce",
        Alcotest.test_case "edge values" `Quick test_reduce_edges
        :: qsuite [ test_reduce_signed ] );
      ( "params",
        [
          Alcotest.test_case "rescale tables" `Quick test_rescale_tables;
          Alcotest.test_case "digit rule" `Quick test_digit_rule;
          Alcotest.test_case "noise precondition rejects" `Quick test_noise_precondition;
          Alcotest.test_case "key-switch tables" `Quick test_keyswitch_tables;
        ] );
      ( "domains",
        Alcotest.test_case "ops agree across domains" `Quick test_domain_ops_agree
        :: Alcotest.test_case "automorphism k mod 2n" `Quick
             test_automorphism_normalization
        :: Alcotest.test_case "to_level" `Quick test_to_level
        :: Alcotest.test_case "rescale keeps the domain, test_deep" `Quick test_rescale_resident
        :: qsuite [ test_domain_roundtrip ] );
      ( "pipeline",
        [
          Alcotest.test_case "resident = forced-coefficient" `Quick
            test_pipeline_domain_equivalence;
        ] );
      ( "keyswitch",
        List.concat_map
          (fun (name, p) ->
            [
              Alcotest.test_case ("kernels = naive reference, " ^ name) `Quick
                (test_keyswitch_kernels p);
              Alcotest.test_case ("decompose Eval = Coeff, " ^ name) `Quick
                (test_decompose_domains p);
              Alcotest.test_case ("group sizes = naive reference, " ^ name) `Quick
                (test_group_sizes p);
            ])
          [
            ("test_small", params ());
            ("test_deep", Params.test_deep ());
            ("rescale primes below 2^30", Lazy.force tight_chain);
            ("alpha = 9", Lazy.force chunked_chain);
          ]
        @ [
            Alcotest.test_case "raw MAC where the bound allows" `Quick test_raw_mac_branches;
            Alcotest.test_case "conversion chunks where the bound fails" `Quick test_conversion_chunks;
            Alcotest.test_case "conversion = per-step reference, every pair" `Quick
              test_conversion_reference;
            Alcotest.test_case "weighted bound at every position" `Quick test_weighted_bound;
            Alcotest.test_case "lazy bounds, test_small" `Quick test_lazy_bounds;
            Alcotest.test_case "group writes only fresh limbs" `Quick test_group_fresh_limbs;
            Alcotest.test_case "pool size invariance" `Quick test_keyswitch_pool_sizes;
            Alcotest.test_case "rot_sum lazy = eager at every group size, test_deep" `Quick
              test_rot_sum_lazy_eager_sizes;
            Alcotest.test_case "error bound at every level, test_deep" `Quick
              test_keyswitch_error_per_level;
          ] );
      ( "plaintext",
        [
          Alcotest.test_case "test_deep golden digests" `Quick test_plaintext_golden;
          Alcotest.test_case "pool size invariance" `Quick test_plaintext_pool_sizes;
        ] );
      ( "lattice",
        [
          Alcotest.test_case "test_deep golden digests" `Quick test_lattice_golden;
          Alcotest.test_case "test_deep golden digests, one domain" `Quick
            test_lattice_golden_sequential;
        ] );
      ( "pool",
        [
          Alcotest.test_case "exception propagates, pool stays usable" `Quick
            test_pool_exception_recovery;
          Alcotest.test_case "nested jobs from the calling domain" `Quick
            test_pool_nested_from_caller;
        ] );
      ( "ref_noise",
        [
          Alcotest.test_case "kernel = frozen per-slot path, pooled" `Quick
            (test_ref_noise_kernel ~sequential:false);
          Alcotest.test_case "kernel = frozen per-slot path, one domain" `Quick
            (test_ref_noise_kernel ~sequential:true);
          Alcotest.test_case "noiseless ops = per-slot definitions" `Quick
            test_ref_noiseless_ops;
          Alcotest.test_case "uniform = Random.State.float" `Quick test_uniform_draws;
        ] );
      ( "slots",
        [
          Alcotest.test_case "clear ops = per-slot definitions" `Quick test_clear_ops;
          Alcotest.test_case "replicate at every period" `Quick test_replicate;
          Alcotest.test_case "unequal lengths raise" `Quick test_unequal_lengths;
        ] );
    ]
