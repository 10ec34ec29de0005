(** CKKS encoding: the canonical embedding between complex slot vectors and
    integer polynomials.

    A degree-[n] real polynomial is evaluated at the [n/2] primitive [2n]-th
    roots of unity [zeta^{5^j}] (the rotation group ordering), giving [n/2]
    complex "slots".  Rotating slots by [r] then corresponds to the Galois
    automorphism [X -> X^{5^r}], which is how {!Eval.rotate} is implemented.

    Values are scaled by [scale] and rounded to integers before being reduced
    into RNS form.  Every encoder raises [Invalid_argument] on a NaN or
    infinite slot and on a rounded coefficient of magnitude [>= 2^62]. *)

val encode :
  Params.t -> level:int -> scale:float -> Complex.t array -> Rns_poly.t
(** Encode at most [slots] values (shorter inputs are zero-padded). *)

val decode : Params.t -> scale:float -> Rns_poly.t -> Complex.t array
(** Decode to exactly [slots] complex values. *)

val encode_real :
  Params.t -> level:int -> scale:float -> float array -> Rns_poly.t

val encode_centered : Params.t -> scale:float -> Complex.t array -> int array
(** The canonical-embedding rounding only: centered integer coefficients
    before any RNS reduction, so callers needing the same plaintext at
    several moduli (e.g. the extended chain of a lazy key switch) pay the
    FFT once. *)

val encode_real_centered : Params.t -> scale:float -> float array -> int array

val decode_real : Params.t -> scale:float -> Rns_poly.t -> float array

val rot_group : Params.t -> int array
(** [5^j mod 2n] for [j < slots]; exposed for tests. *)
