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

(* Hardware division for every value whose factors both vary (a product of
   two residues, a sum of such products, a signed sum): [a mod m] lies in
   (-m, m) with the sign of [a], and the mask [r asr 62] (all ones exactly
   when [r < 0]) adds [m] back without a data-dependent branch.  Valid for
   every int, [min_int] and [max_int] included. *)
let[@inline] reduce ~m a =
  let r = a mod m in
  r + (m land (r asr 62))

let center ~m a = if a > m / 2 then a - m else a
