(* In-place negacyclic NTT with the psi-twist merged into the twiddle
   factors (Longa-Naehrig style): the forward transform is a Cooley-Tukey
   decimation-in-time pass over twiddles psi^bitrev(i) taking natural order
   to bit-reversed order, the inverse a Gentleman-Sande pass over
   psi^{-bitrev(i)} taking it back, so neither the pre/post multiplication
   by psi^i nor an explicit bit-reversal permutation of the data is needed.
   Every butterfly multiply is a Shoup multiply (precomputed companions)
   instead of a hardware division.  Moduli below 2^29 -- the scale primes,
   most of every chain -- run lazy radix-4 kernels that keep values in
   [0, 4q) / [0, 2q) between butterflies; the 31-bit base and special
   primes run fully reduced radix-2 loops (see [lazy_bound]).  Pointwise
   products have two varying factors and no companion to precompute: each
   reduces with one hardware [mod]. *)

type ctx = {
  q : int;
  n : int;
  fwd_tw : int array; (* fwd_tw.(i) = psi^bitrev(i), CT access order *)
  fwd_tw_shoup : int array;
  inv_tw : int array; (* inv_tw.(i) = psi^{-bitrev(i)}, GS access order *)
  inv_tw_shoup : int array;
  n_inv : int;
  n_inv_shoup : int;
  lazy_kernels : bool; (* q < lazy_bound: the lazy radix-4 transforms fit *)
  slot_exp : int array; (* slot i of the eval domain holds p(psi^slot_exp.(i)) *)
  idx_of_exp : int array; (* inverse of slot_exp over odd exponents, size 2n *)
}

let q ctx = ctx.q
let n ctx = ctx.n

let powers ~m base count =
  let a = Array.make count 1 in
  for i = 1 to count - 1 do
    a.(i) <- Modarith.mul ~m a.(i - 1) base
  done;
  a

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let bitrev ~bits i =
  let r = ref 0 in
  for b = 0 to bits - 1 do
    if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
  done;
  !r

(* --- in-place transforms ------------------------------------------------ *)

(* The butterfly loops use unsafe array accesses -- the length check at
   entry makes every index provably in bounds (j + half <= n and twiddle
   indices stay below n by construction) -- and branchless reductions:
   [t + (q land (t asr 62))] adds q back exactly when [t] is negative,
   with no data-dependent branch for the predictor to miss (the compares
   are ~50/50 on random residues, so branching costs a misprediction on
   every other butterfly). *)

let check_len ctx a =
  if Array.length a <> ctx.n then invalid_arg "Ntt: length mismatch"

(* Fully reduced radix-2 loops: every value stays in [0, q) between
   butterflies.  Only the 31-bit moduli (base and special prime) run these;
   see [lazy_bound]. *)

let forward_exact ctx a =
  let q = ctx.q and n = ctx.n in
  let tw = ctx.fwd_tw and tws = ctx.fwd_tw_shoup in
  let t = ref n in
  let m = ref 1 in
  while !m < n do
    t := !t lsr 1;
    let half = !t in
    for i = 0 to !m - 1 do
      let j1 = 2 * i * half in
      let s = Array.unsafe_get tw (!m + i)
      and s_sh = Array.unsafe_get tws (!m + i) in
      for j = j1 to j1 + half - 1 do
        let u = Array.unsafe_get a j in
        let x = Array.unsafe_get a (j + half) in
        let qh = (x * s_sh) lsr 31 in
        let v0 = (x * s) - (qh * q) - q in
        let v = v0 + (q land (v0 asr 62)) in
        let su = u + v - q in
        Array.unsafe_set a j (su + (q land (su asr 62)));
        let d = u - v in
        Array.unsafe_set a (j + half) (d + (q land (d asr 62)))
      done
    done;
    m := !m lsl 1
  done

let inverse_exact ctx a =
  let q = ctx.q and n = ctx.n in
  let tw = ctx.inv_tw and tws = ctx.inv_tw_shoup in
  let t = ref 1 in
  let m = ref n in
  while !m > 1 do
    let h = !m lsr 1 in
    let half = !t in
    let j1 = ref 0 in
    for i = 0 to h - 1 do
      let s = Array.unsafe_get tw (h + i)
      and s_sh = Array.unsafe_get tws (h + i) in
      for j = !j1 to !j1 + half - 1 do
        let u = Array.unsafe_get a j
        and v = Array.unsafe_get a (j + half) in
        let su = u + v - q in
        Array.unsafe_set a j (su + (q land (su asr 62)));
        let d0 = u - v in
        let d = d0 + (q land (d0 asr 62)) in
        let qh = (d * s_sh) lsr 31 in
        let r0 = (d * s) - (qh * q) - q in
        Array.unsafe_set a (j + half) (r0 + (q land (r0 asr 62)))
      done;
      j1 := !j1 + (2 * half)
    done;
    t := half lsl 1;
    m := h
  done

(* Lazy radix-4 kernels (Harvey's lazy butterflies), for q < [lazy_bound].
   Then every value below 4q is below 2^31, so for any x < 4q:
   - the Shoup product [x * w - floor(x * w' / 2^31) * q] is valid (its
     quotient estimate is short by at most one because x < 2^31) and lies
     in [0, 2q);
   - x * w' < 2^31 * 2^31 = 2^62 and x * w < 4q * q < 2^60 fit the 63-bit
     native int.
   At a 31-bit modulus even 2q passes 2^31 and x * w' can overflow, so no
   lazy form fits and the base and special primes keep the exact loops.

   Forward (Cooley-Tukey), values in [0, 4q): take u mod 2q with one masked
   2q correction, v = Shoup (x * w) in [0, 2q), and emit u + v and
   u - v + 2q, both in [0, 4q).  A final pass brings [0, 4q) to [0, q).
   Inverse (Gentleman-Sande), values in [0, 2q): emit (u + v) mod 2q (one
   masked correction) and Shoup ((u - v + 2q) * w) in [0, 2q); the n^-1
   pass reduces to [0, q).

   Stages run in pairs as radix-4 butterflies over the radix-2 twiddle
   tables, so each quadruple is loaded and stored once per two stages.
   Forward pairs CT stages (m, 2m): block i of stage m (twiddle m + i)
   splits into blocks 2i and 2i + 1 of stage 2m (twiddles 2m + 2i and
   2m + 2i + 1).  Inverse pairs GS stages the other way: blocks 2b and
   2b + 1 of the stage with h blocks (twiddles h + 2b and h + 2b + 1) merge
   into block b of the next (twiddle h/2 + b).  With odd log n the
   unpaired radix-2 stage is the first forward stage and the last inverse
   one. *)
let lazy_bound = 1 lsl 29

let forward_lazy ctx a =
  let q = ctx.q and n = ctx.n in
  let q2 = 2 * q in
  let tw = ctx.fwd_tw and tws = ctx.fwd_tw_shoup in
  (* [m] blocks of size [t] at the current stage. *)
  let m = ref 1 and t = ref n in
  if log2 n land 1 = 1 then begin
    let half = n lsr 1 in
    let w = Array.unsafe_get tw 1 and ws = Array.unsafe_get tws 1 in
    for j = 0 to half - 1 do
      let u = Array.unsafe_get a j - q2 in
      let u = u + (q2 land (u asr 62)) in
      let x = Array.unsafe_get a (j + half) in
      let v = (x * w) - (((x * ws) lsr 31) * q) in
      Array.unsafe_set a j (u + v);
      Array.unsafe_set a (j + half) (u - v + q2)
    done;
    m := 2;
    t := half
  end;
  while !m < n do
    let mm = !m and bs = !t in
    let h = bs lsr 2 in
    for i = 0 to mm - 1 do
      let j1 = i * bs in
      let w1 = Array.unsafe_get tw (mm + i) and w1s = Array.unsafe_get tws (mm + i) in
      let k = (2 * mm) + (2 * i) in
      let w2 = Array.unsafe_get tw k and w2s = Array.unsafe_get tws k in
      let w3 = Array.unsafe_get tw (k + 1) and w3s = Array.unsafe_get tws (k + 1) in
      for j = j1 to j1 + h - 1 do
        let x0 = Array.unsafe_get a j - q2 in
        let x0 = x0 + (q2 land (x0 asr 62)) in
        let x1 = Array.unsafe_get a (j + h) - q2 in
        let x1 = x1 + (q2 land (x1 asr 62)) in
        let x2 = Array.unsafe_get a (j + (2 * h)) in
        let x3 = Array.unsafe_get a (j + (3 * h)) in
        (* stage m: (x0, x2) and (x1, x3) by w1 *)
        let v = (x2 * w1) - (((x2 * w1s) lsr 31) * q) in
        let y0 = x0 + v - q2 in
        let y0 = y0 + (q2 land (y0 asr 62)) in
        let y2 = x0 - v + q2 in
        let v = (x3 * w1) - (((x3 * w1s) lsr 31) * q) in
        let y1 = x1 + v and y3 = x1 - v + q2 in
        (* stage 2m: (y0, y1) by w2 and (y2, y3) by w3 *)
        let v = (y1 * w2) - (((y1 * w2s) lsr 31) * q) in
        Array.unsafe_set a j (y0 + v);
        Array.unsafe_set a (j + h) (y0 - v + q2);
        let y2 = y2 - q2 in
        let y2 = y2 + (q2 land (y2 asr 62)) in
        let v = (y3 * w3) - (((y3 * w3s) lsr 31) * q) in
        Array.unsafe_set a (j + (2 * h)) (y2 + v);
        Array.unsafe_set a (j + (3 * h)) (y2 - v + q2)
      done
    done;
    m := mm * 4;
    t := h
  done;
  for j = 0 to n - 1 do
    let x = Array.unsafe_get a j - q2 in
    let x = x + (q2 land (x asr 62)) - q in
    Array.unsafe_set a j (x + (q land (x asr 62)))
  done

let inverse_lazy ctx a =
  let q = ctx.q and n = ctx.n in
  let q2 = 2 * q in
  let tw = ctx.inv_tw and tws = ctx.inv_tw_shoup in
  (* [h] blocks with half-size [t] at the current stage. *)
  let h = ref (n lsr 1) and t = ref 1 in
  while !h >= 2 do
    let hh = !h and tt = !t in
    let hb = hh lsr 1 in
    for b = 0 to hb - 1 do
      let j1 = 4 * b * tt in
      let k = hh + (2 * b) in
      let wa = Array.unsafe_get tw k and was = Array.unsafe_get tws k in
      let wb = Array.unsafe_get tw (k + 1) and wbs = Array.unsafe_get tws (k + 1) in
      let wc = Array.unsafe_get tw (hb + b) and wcs = Array.unsafe_get tws (hb + b) in
      for j = j1 to j1 + tt - 1 do
        let x0 = Array.unsafe_get a j and x1 = Array.unsafe_get a (j + tt) in
        let x2 = Array.unsafe_get a (j + (2 * tt)) and x3 = Array.unsafe_get a (j + (3 * tt)) in
        (* stage h: (x0, x1) by wa and (x2, x3) by wb *)
        let y0 = x0 + x1 - q2 in
        let y0 = y0 + (q2 land (y0 asr 62)) in
        let d = x0 - x1 + q2 in
        let y1 = (d * wa) - (((d * was) lsr 31) * q) in
        let y2 = x2 + x3 - q2 in
        let y2 = y2 + (q2 land (y2 asr 62)) in
        let d = x2 - x3 + q2 in
        let y3 = (d * wb) - (((d * wbs) lsr 31) * q) in
        (* stage h/2: (y0, y2) and (y1, y3) by wc *)
        let s = y0 + y2 - q2 in
        Array.unsafe_set a j (s + (q2 land (s asr 62)));
        let d = y0 - y2 + q2 in
        Array.unsafe_set a (j + (2 * tt)) ((d * wc) - (((d * wcs) lsr 31) * q));
        let s = y1 + y3 - q2 in
        Array.unsafe_set a (j + tt) (s + (q2 land (s asr 62)));
        let d = y1 - y3 + q2 in
        Array.unsafe_set a (j + (3 * tt)) ((d * wc) - (((d * wcs) lsr 31) * q))
      done
    done;
    h := hb lsr 1;
    t := tt * 4
  done;
  if !h = 1 then begin
    let half = !t in
    let w = Array.unsafe_get tw 1 and ws = Array.unsafe_get tws 1 in
    for j = 0 to half - 1 do
      let u = Array.unsafe_get a j and v = Array.unsafe_get a (j + half) in
      let s = u + v - q2 in
      Array.unsafe_set a j (s + (q2 land (s asr 62)));
      let d = u - v + q2 in
      Array.unsafe_set a (j + half) ((d * w) - (((d * ws) lsr 31) * q))
    done
  end

let forward_in_place ctx a =
  check_len ctx a;
  if ctx.lazy_kernels then forward_lazy ctx a else forward_exact ctx a

let inverse_in_place ctx a =
  check_len ctx a;
  if ctx.lazy_kernels then inverse_lazy ctx a else inverse_exact ctx a;
  (* Inputs in [0, 2q) (lazy) or [0, q) (exact): the Shoup product by n^-1
     lies in [0, 2q) and one masked subtraction reduces it. *)
  let q = ctx.q in
  let ni = ctx.n_inv and nis = ctx.n_inv_shoup in
  for j = 0 to ctx.n - 1 do
    let x = Array.unsafe_get a j in
    let qh = (x * nis) lsr 31 in
    let r0 = (x * ni) - (qh * q) - q in
    Array.unsafe_set a j (r0 + (q land (r0 asr 62)))
  done

let forward ctx coeffs =
  let a = Array.copy coeffs in
  forward_in_place ctx a;
  a

let inverse ctx values =
  let a = Array.copy values in
  inverse_in_place ctx a;
  a

(* Residues are below 2^31, so a product is a non-negative int below 2^62:
   one hardware [mod] per slot.  [dst] has length n (it is [a] or fresh). *)
let mul_into ctx dst a b =
  check_len ctx a;
  check_len ctx b;
  let q = ctx.q in
  for i = 0 to ctx.n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i * Array.unsafe_get b i mod q)
  done

let pointwise_mul ctx a b =
  let c = Array.make ctx.n 0 in
  mul_into ctx c a b;
  c

let pointwise_mul_in_place ctx a b = mul_into ctx a a b

let negacyclic_mul ctx a b =
  let fa = forward ctx a and fb = forward ctx b in
  pointwise_mul_in_place ctx fa fb;
  inverse_in_place ctx fa;
  fa

(* --- context construction ---------------------------------------------- *)

let make_ctx ~q ~n =
  if n land (n - 1) <> 0 then invalid_arg "Ntt: n must be a power of two";
  if (q - 1) mod (2 * n) <> 0 then invalid_arg "Ntt: q <> 1 mod 2n";
  let bits = log2 n in
  let psi = Primes.primitive_root_2n ~q ~n in
  let psi_inv = Modarith.inv ~m:q psi in
  let psi_pows = powers ~m:q psi n in
  let psi_inv_pows = powers ~m:q psi_inv n in
  let fwd_tw = Array.init n (fun i -> psi_pows.(bitrev ~bits i)) in
  let inv_tw = Array.init n (fun i -> psi_inv_pows.(bitrev ~bits i)) in
  let n_inv = Modarith.inv ~m:q n in
  let ctx =
    {
      q;
      n;
      fwd_tw;
      fwd_tw_shoup = Array.map (fun w -> Modarith.shoup ~m:q w) fwd_tw;
      inv_tw;
      inv_tw_shoup = Array.map (fun w -> Modarith.shoup ~m:q w) inv_tw;
      n_inv;
      n_inv_shoup = Modarith.shoup ~m:q n_inv;
      lazy_kernels = q < lazy_bound;
      slot_exp = [||];
      idx_of_exp = [||];
    }
  in
  (* Recover the evaluation ordering empirically: transforming the monomial X
     puts psi^e_i in slot i; a discrete-log table over the order-2n cyclic
     group <psi> reads the exponents back.  This keeps the automorphism
     permutation correct for whatever ordering the butterfly code produces. *)
  let dlog = Hashtbl.create (2 * n) in
  let p = ref 1 in
  for e = 0 to (2 * n) - 1 do
    Hashtbl.replace dlog !p e;
    p := Modarith.mul ~m:q !p psi
  done;
  let x = Array.make n 0 in
  if n > 1 then x.(1) <- 1 else x.(0) <- 1;
  forward_in_place ctx x;
  let slot_exp =
    if n > 1 then Array.map (fun v -> Hashtbl.find dlog v) x
    else [| 1 |]
  in
  let idx_of_exp = Array.make (2 * n) (-1) in
  Array.iteri (fun i e -> idx_of_exp.(e) <- i) slot_exp;
  { ctx with slot_exp; idx_of_exp }

(* --- evaluation-domain automorphism ------------------------------------ *)

(* The permutation depends only on (n, k): slot orderings are structural, so
   every ctx with the same n shares it.  A global mutex-guarded cache keeps
   lookups cheap; callers resolve the permutation once before fanning limbs
   out to the domain pool. *)
let perm_cache : (int * int, int array) Hashtbl.t = Hashtbl.create 16
let perm_mutex = Mutex.create ()

let eval_perm ctx ~k =
  let two_n = 2 * ctx.n in
  let k = ((k mod two_n) + two_n) mod two_n in
  if k land 1 = 0 then invalid_arg "Ntt.eval_perm: k must be odd";
  Mutex.lock perm_mutex;
  let perm =
    match Hashtbl.find_opt perm_cache (ctx.n, k) with
    | Some p -> p
    | None ->
      (* sigma_k(p) evaluated at psi^e is p(psi^{e*k mod 2n}). *)
      let p =
        Array.init ctx.n (fun i ->
            ctx.idx_of_exp.(ctx.slot_exp.(i) * k mod two_n))
      in
      Hashtbl.add perm_cache (ctx.n, k) p;
      p
  in
  Mutex.unlock perm_mutex;
  perm
