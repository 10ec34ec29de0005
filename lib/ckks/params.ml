type basis = {
  src : int array;
  src_q : int array;
  half : int array;
  hat_inv : int array;
  hat_inv_shoup : int array;
  hat : int array array;
  chunks : int array array;
  neg_prod : int array;
}

type t = {
  n : int;
  slots : int;
  max_level : int;
  moduli : int array;
  specials : int array;
  alpha : int;
  scale : float;
  sigma : float;
  ntts : Ntt.ctx array;
  rescale_inv : int array array;
  rescale_inv_shoup : int array array;
  mod_up : basis array array;
  mod_down : basis;
  p_inv : int array;
  p_inv_shoup : int array;
}

type spec = { spec_log_n : int; spec_log_q : int; spec_scale_bits : int; spec_max_level : int }

let paper_spec =
  { spec_log_n = 17; spec_log_q = 1479; spec_scale_bits = 51; spec_max_level = 16 }

(* Hybrid key switching (see DESIGN.md section 12).  The ciphertext chain
   q_0 .. q_{L-1} splits into dnum = ceil(L / alpha) digits of alpha
   consecutive primes, digit j holding the primes I_j = {j*alpha, ...}
   (product Q_I), and the switching keys live modulo Q * P, P the product of
   K = alpha special primes.  Special primes sit below 2^29 so that their
   transforms take the lazy radix-4 NTT path.

   Error bound.  ModUp lifts digit j by a centered fast base conversion,
   which returns d_j + u*Q_I with |u| <= alpha/2, so every lifted digit
   coefficient is below alpha * Q_I / 2 in magnitude.  The switch adds
   sum_j ModUp(d_j) * e_j and divides it by P; ModDown's centered
   conversion of the special residues is exact up to a multiple v*P with
   |v| < K/2, so it adds an error below K/2 to each coefficient of both
   output halves.  Per coefficient, with errors bounded by B_e:

     |e_ks| <= dnum * n * (alpha * Q_I / 2) * B_e / P + (K / 2) * (1 + n)

   (the second term is the rounding of u0 plus that of u1 times a ternary
   secret).  [make] checks log2 P >= log2 Q_I as bit lengths (P has at
   least as many bits as every Q_I, so Q_I < 2P); the first term is then
   below dnum * n * alpha * B_e: the switch stays at the scale of a fresh
   encryption error whatever the level.  Bit lengths, not exact logarithms:
   digit 0 holds the 31-bit base prime, and at alpha = 2 two primes below
   2^29 can fall short of base * q_1 by a factor 1 - 10^-4 (n = 2^10,
   2^12), which costs nothing in the bound.

   Lazy bounds.  Every product whose two factors both vary closes with one
   hardware [mod] ([Modarith.reduce]); Shoup products stay where one factor
   is a fixed constant with a stored companion (twiddles, hat_inv, P^-1,
   q_l^-1).  The bounds below keep each unreduced sum a native int, so the
   one [mod] per output sees the exact integer.

   The group MAC ([Keys.switch_group]) multiplies residues below q with no
   precomputed companions, so switching keys hold only their two halves.
   At a position with d digits a pure member adds d raw products x, at
   most d * (q - 1)^2.  A weighted member with plaintext row c adds
   hi * c' + lo * c, where x = hi * 2^31 + lo and c' = c * 2^31 mod q is
   the row's companion, kept in the plaintext memo: at most
   ((x_max lsr 31) + min x_max (2^31 - 1)) * (q - 1), about 2^60 at a
   29-bit special prime and 2^58 at a 27-bit scale prime.  The Q side adds
   a term below q (pure) or at most (q - 1)^2 (weighted).  Running sums
   stay unreduced while B terms on a residue below q stay below 2^62, and
   close after every B-th member: B = [Keys.lazy_terms] for pure members
   (g * d * (q - 1)^2 + q < 2^62) and [Keys.weighted_terms] for weighted
   ones (3 at test_deep's special primes, 15 or 16 at its scale primes).
   With d <= dnum <= 4 one pure term fits for every prime below 2^30, so at
   every position but a 31-bit base prime (and there too while d = 1);
   there each product is reduced as it is added, as (q - 1) + (q - 1)^2 <
   2^62 for every q < 2^31 ([Keys.raw_mac] decides per position).  Where
   no weighted term fits -- the base prime, and any position where
   [raw_mac] fails -- a weighted member reduces each product the same way
   and closes its sums after every member.

   The base conversion ([Keys.convert]) sums the signed products
   center(y_i) * hat_i of its alpha sources, each of magnitude at most
   floor(b_i / 2) * (m - 1), and closes with one [mod].  Where
   sum_i floor(b_i / 2) * (m - 1) < 2^62 that is one close per output:
   at test_deep the largest pair is ModDown into the base prime, 2^61.0.
   With a 31-bit base prime and 29-bit special primes alpha = 8 still fits
   everywhere, and alpha = 9 (L = 33 .. 36) overflows in one pair, ModDown
   into the base prime; there the sum closes after each chunk of
   [conversion_chunks] below. *)
let special_bits = 29

(* alpha = K: a quarter of the chain, rounded up, so the full chain splits
   into at most 4 digits.  At least 2: a lone sub-2^29 special prime cannot
   cover the 31-bit base prime. *)
let digit_width ~max_level = max 2 ((max_level + 3) / 4)

(* Where the one-pass conversion into a modulus [m] closes its signed sum.
   A source term center(y_i) * hat_i has magnitude at most
   half_i * (m - 1) (half_i = floor(b_i / 2)), and a closed sum is a
   remainder in (-m, m).  Sources are taken greedily: a chunk grows while
   its bound, plus m - 1 for the carried remainder after the first chunk,
   stays below 2^62, so every partial sum is a native int.  The result
   lists the exclusive ends of the chunks, the last one the source count:
   [| k |] where the whole sum fits, which is every (basis, target) pair of
   a chain with alpha <= 8 under a 31-bit base prime.  (The comparison
   [term > max_int - bound] cannot overflow: both sides are below 2^62.) *)
let conversion_chunks ~half m =
  let k = Array.length half in
  let ends = ref [] and bound = ref 0 in
  for i = 0 to k - 1 do
    let term = half.(i) * (m - 1) in
    if term > max_int - !bound then begin
      ends := i :: !ends;
      bound := m - 1 + term
    end
    else bound := !bound + term
  done;
  Array.of_list (List.rev (k :: !ends))

(* Fast base conversion tables from the source primes [chain.(src.(i))]
   (product B) to every extended-chain modulus m_t:
   hat_inv.(i) = (B / b_i)^-1 mod b_i, with its Shoup companion (a fixed
   multiplicand), hat.(t).(i) = (B / b_i) mod m_t, the chunk ends of the
   conversion into m_t, and neg_prod.(t) = -B mod m_t. *)
let make_basis chain src =
  let k = Array.length src in
  let src_q = Array.map (fun t -> chain.(t)) src in
  let half = Array.map (fun b -> b / 2) src_q in
  (* Product of the source primes but [skip] (-1: all of them) mod m. *)
  let prod_mod m ~skip =
    let acc = ref 1 in
    for i = 0 to k - 1 do
      if i <> skip then acc := Modarith.mul ~m !acc (src_q.(i) mod m)
    done;
    !acc
  in
  let hat = Array.map (fun m -> Array.init k (fun i -> prod_mod m ~skip:i)) chain in
  let hat_inv = Array.init k (fun i -> Modarith.inv ~m:src_q.(i) hat.(src.(i)).(i)) in
  {
    src;
    src_q;
    half;
    hat_inv;
    hat_inv_shoup = Array.mapi (fun i w -> Modarith.shoup ~m:src_q.(i) w) hat_inv;
    hat;
    chunks = Array.map (conversion_chunks ~half) chain;
    neg_prod = Array.map (fun m -> Modarith.neg ~m (prod_mod m ~skip:(-1))) chain;
  }

(* The [count] largest NTT primes below 2^special_bits that are not
   ciphertext primes: a shared prime would make P = 0 mod q_t, with no
   P^-1.  (A base prime of at most 29 bits, or 29-bit rescale primes, would
   otherwise be picked again.) *)
let special_primes ~n ~count moduli =
  let rec collect acc start remaining =
    if remaining = 0 then Array.of_list (List.rev acc)
    else
      let q = Primes.ntt_prime_below ~n start in
      if Array.mem q moduli then collect acc (q - 1) remaining
      else collect (q :: acc) (q - 1) (remaining - 1)
  in
  collect [] ((1 lsl special_bits) - 1) count

(* Bit length of a product of primes (never a power of two, so the float
   sum of logarithms is nowhere near an integer boundary). *)
let bits_of_prod a =
  1 + int_of_float (Array.fold_left (fun acc q -> acc +. Float.log2 (float_of_int q)) 0.0 a)

(* Every table of a parameter set over the ciphertext chain [moduli]. *)
let of_moduli ?(sigma = 3.2) ~log_n ~scale_bits moduli =
  let max_level = Array.length moduli in
  if max_level < 1 then invalid_arg "Params.of_moduli: empty chain";
  if Array.exists (fun q -> q <= 1 || q >= Modarith.max_modulus) moduli then
    invalid_arg "Params.of_moduli: modulus out of range";
  let n = 1 lsl log_n in
  let alpha = digit_width ~max_level in
  let specials = special_primes ~n ~count:alpha moduli in
  let dnum = (max_level + alpha - 1) / alpha in
  (* Extended chain: the ciphertext moduli, then the special primes. *)
  let chain = Array.append moduli specials in
  let ntts = Array.map (fun q -> Ntt.make_ctx ~q ~n) chain in
  (* Precomputed inverse tables: rescale_inv.(j).(i) = moduli.(j)^{-1} mod
     moduli.(i) for i < j (the constants of an exact rescale dropping prime
     j), each with its Shoup companion so the hot loops never call
     Modarith.inv (a full Fermat exponentiation) nor a hardware division. *)
  let rescale_inv =
    Array.init max_level (fun j ->
        Array.init j (fun i ->
            Modarith.inv ~m:moduli.(i) (moduli.(j) mod moduli.(i))))
  in
  let rescale_inv_shoup =
    Array.init max_level (fun j ->
        Array.init j (fun i -> Modarith.shoup ~m:moduli.(i) rescale_inv.(j).(i)))
  in
  (* ModUp tables per digit j and width s (the last digit of a level-l
     ciphertext keeps only its first s = l - j*alpha primes); ModDown
     tables from the specials, plus P^{-1} mod q_t. *)
  let mod_up =
    Array.init dnum (fun j ->
        let width = min alpha (max_level - (j * alpha)) in
        Array.init width (fun s -> make_basis chain (Array.init (s + 1) (fun i -> (j * alpha) + i))))
  in
  let mod_down = make_basis chain (Array.init alpha (fun k -> max_level + k)) in
  let p_inv =
    Array.init max_level (fun t ->
        Modarith.inv ~m:moduli.(t) (Modarith.neg ~m:moduli.(t) mod_down.neg_prod.(t)))
  in
  {
    n;
    slots = n / 2;
    max_level;
    moduli;
    specials;
    alpha;
    scale = Float.of_int (1 lsl scale_bits);
    sigma;
    ntts;
    rescale_inv;
    rescale_inv_shoup;
    mod_up;
    mod_down;
    p_inv;
    p_inv_shoup = Array.mapi (fun t w -> Modarith.shoup ~m:moduli.(t) w) p_inv;
  }

let make ?sigma ~log_n ~max_level ~base_bits ~scale_bits () =
  if base_bits > 31 then invalid_arg "Params.make: base_bits > 31";
  if scale_bits >= base_bits then
    invalid_arg "Params.make: scale_bits must be below base_bits";
  if max_level < 1 then invalid_arg "Params.make: max_level < 1";
  let n = 1 lsl log_n in
  (* The base prime sits near 2^base_bits (it carries the decrypted
     plaintext), rescale primes near 2^scale_bits so that rescaling divides
     the scale by approximately the scale itself. *)
  let base = Primes.ntt_prime_below ~n ((1 lsl base_bits) - 1) in
  let rescale_primes =
    Primes.ntt_primes ~n ~bits:scale_bits ~count:(max_level - 1)
  in
  let p = of_moduli ?sigma ~log_n ~scale_bits (Array.of_list (base :: rescale_primes)) in
  (* Key-switching noise precondition: no digit may outgrow P, or the
     digit/error product divided by P exceeds a fresh encryption error (see
     the bound above).  Digit 0, which holds the base prime, is the widest. *)
  let alpha = p.alpha in
  let dnum = (max_level + alpha - 1) / alpha in
  let widest =
    Array.fold_left max 0
      (Array.init dnum (fun j ->
           bits_of_prod (Array.sub p.moduli (j * alpha) (min alpha (max_level - (j * alpha))))))
  in
  if bits_of_prod p.specials < widest then
    invalid_arg
      (Printf.sprintf "Params.make: P has %d bits, the widest key-switching digit %d"
         (bits_of_prod p.specials) widest);
  p

let test_small_memo = ref None
let test_deep_memo = ref None

let memoized cell build =
  match !cell with
  | Some p -> p
  | None ->
    let p = build () in
    cell := Some p;
    p

let test_small () =
  memoized test_small_memo (fun () ->
      make ~log_n:10 ~max_level:8 ~base_bits:31 ~scale_bits:27 ())

let test_deep () =
  memoized test_deep_memo (fun () ->
      make ~log_n:11 ~max_level:16 ~base_bits:31 ~scale_bits:27 ())

let modulus_at p ~level = p.moduli.(level - 1)
let ntt_at p ~idx = p.ntts.(idx)
let chain_len p = p.max_level + Array.length p.specials
let digits p ~level = (level + p.alpha - 1) / p.alpha

(* FNV-1a over the fields that determine ciphertext compatibility.  The NTT
   contexts and inverse tables are derived from these, so hashing them would
   add nothing. *)
let fnv_prime = 0x100000001b3L
let fnv_seed = 0xcbf29ce484222325L

let fnv_int h v =
  let rec go h v i =
    if i = 8 then h
    else
      go
        (Int64.mul (Int64.logxor h (Int64.of_int (v land 0xff))) fnv_prime)
        (v lsr 8) (i + 1)
  in
  go h v 0

let fingerprint p =
  let h = fnv_int fnv_seed p.n in
  let h = fnv_int h p.max_level in
  let h = Array.fold_left fnv_int h p.moduli in
  let h = fnv_int h (Array.length p.specials) in
  let h = Array.fold_left fnv_int h p.specials in
  let h = fnv_int h (Int64.to_int (Int64.bits_of_float p.scale) land max_int) in
  fnv_int h (Int64.to_int (Int64.bits_of_float p.sigma) land max_int)
