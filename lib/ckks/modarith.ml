let max_modulus = 1 lsl 31

let add ~m a b =
  let s = a + b in
  if s >= m then s - m else s

let sub ~m a b =
  let d = a - b in
  if d < 0 then d + m else d

let neg ~m a = if a = 0 then 0 else m - a
let mul ~m a b = a * b mod m

let pow ~m b e =
  let rec go acc b e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mul ~m acc b else acc in
      go acc (mul ~m b b) (e lsr 1)
  in
  go 1 (b mod m) e

let inv ~m a =
  if a = 0 then invalid_arg "Modarith.inv: zero";
  pow ~m a (m - 2)

(* Shoup multiplication: for a fixed multiplicand [w < m < 2^31] precompute
   [w' = floor(w * 2^31 / m)]; then for any [a < 2^31] the quotient estimate
   [qh = floor(a * w' / 2^31)] satisfies [qh <= floor(a*w/m) <= qh + 1], so
   [a*w - qh*m] lies in [0, 2m) and one conditional subtraction replaces the
   hardware division of [mul].  Every intermediate product stays below 2^62
   and therefore fits the 63-bit native int. *)
let shoup_shift = 31

let shoup ~m w =
  if w >= m then invalid_arg "Modarith.shoup: w >= m";
  (w lsl shoup_shift) / m

let mul_shoup ~m a w w_shoup =
  let qh = (a * w_shoup) lsr shoup_shift in
  let r = (a * w) - (qh * m) in
  if r >= m then r - m else r

(* Division-free reduction of wider values.  A [reducer] holds a modulus
   [q < 2^31] with the Shoup companions of 1 and of [r31 = 2^31 mod q]:

   - [reduce31]: for [0 <= x < 2^31] the Shoup multiply by 1 leaves
     [x - floor(x * one_s / 2^31) * q] in [0, 2q), and one masked
     subtraction finishes it.
   - [reduce62]: for [0 <= x < 2^62] split [x = hi * 2^31 + lo] with both
     halves below 2^31 and reduce each as a Shoup product -- [hi] by [r31],
     [lo] by 1.  Each product lies in [0, 2q), so the sum is below 4q and
     two masked subtractions bring it into [0, q).

   The masks are [t asr 62] (all ones exactly when [t < 0]): no division,
   no data-dependent branch. *)
type reducer = { q : int; r31 : int; r31_s : int; one_s : int }

let reducer q =
  if q <= 1 || q >= max_modulus then invalid_arg "Modarith.reducer: modulus out of range";
  let r31 = max_modulus mod q in
  { q; r31; r31_s = shoup ~m:q r31; one_s = shoup ~m:q 1 }

let[@inline] reduce31 { q; one_s; _ } x =
  let r = x - (((x * one_s) lsr shoup_shift) * q) - q in
  r + (q land (r asr 62))

let[@inline] reduce62 { q; r31; r31_s; one_s } x =
  let hi = x lsr shoup_shift and lo = x land (max_modulus - 1) in
  let r =
    (hi * r31)
    - (((hi * r31_s) lsr shoup_shift) * q)
    + lo
    - (((lo * one_s) lsr shoup_shift) * q)
    - (2 * q)
  in
  let r = r + ((2 * q) land (r asr 62)) - q in
  r + (q land (r asr 62))

(* |x| < 2^62 for every int but [min_int]: reduce the magnitude, then negate
   under the sign mask ([(r lxor s) - s] is [-r] when [s = -1]) and add [q]
   back to a negative result. *)
let[@inline] embed red x =
  let s = x asr 62 in
  let r = reduce62 red ((x lxor s) - s) in
  let r = (r lxor s) - s in
  r + (red.q land (r asr 62))

let reduce ~m a =
  let r = a mod m in
  if r < 0 then r + m else r

let center ~m a = if a > m / 2 then a - m else a
