(** Modular arithmetic on OCaml's native [int] for odd moduli below [2^31].

    Products of two operands below [2^31] fit in the 63-bit native integer,
    so no multi-precision arithmetic is needed anywhere in the substrate.
    All functions expect [0 <= a, b < m] unless stated otherwise. *)

val max_modulus : int
(** Largest supported modulus, [2^31]. *)

val add : m:int -> int -> int -> int
val sub : m:int -> int -> int -> int
val neg : m:int -> int -> int
val mul : m:int -> int -> int -> int

val pow : m:int -> int -> int -> int
(** [pow ~m b e] is [b^e mod m] for [e >= 0]. *)

val inv : m:int -> int -> int
(** Inverse modulo a prime [m] (via Fermat).  Raises [Invalid_argument] on a
    zero argument. *)

val shoup : m:int -> int -> int
(** [shoup ~m w] is the precomputed Shoup companion [floor (w * 2^31 / m)]
    of a fixed multiplicand [w < m].  Requires [m < 2^31]. *)

val mul_shoup : m:int -> int -> int -> int -> int
(** [mul_shoup ~m a w w_shoup] is [a * w mod m] computed without a hardware
    division, where [w_shoup = shoup ~m w].  Requires [0 <= a < 2^31] and
    [w < m]; this is the hot-path multiply of the NTT butterflies and of the
    precomputed-inverse rescale paths.  With [w = 1] it is a division-free
    reduction: [mul_shoup ~m a 1 (shoup ~m 1) = a mod m] for any
    [0 <= a < 2^31], which is how the key-switch kernels reduce. *)

(** {2 Division-free reduction}

    A [reducer] fixes a modulus [q < 2^31] together with the Shoup
    companions of 1 and of [2^31 mod q]; it reduces values wider than a
    residue with multiply-shift-subtract steps and masked corrections, no
    hardware division and no data-dependent branch.  Build one per
    modulus outside the hot loop. *)

type reducer

val reducer : int -> reducer
(** [reducer q] for an odd modulus [1 < q < 2^31]. *)

val reduce31 : reducer -> int -> int
(** [reduce31 r x = x mod q].  Requires [0 <= x < 2^31]. *)

val reduce62 : reducer -> int -> int
(** [reduce62 r x = x mod q].  Requires [0 <= x < 2^62]: every product of
    two residues below [2^31] qualifies, and so does a sum of such products
    that stays below [2^62] (the lazily accumulated key-switch MAC). *)

val embed : reducer -> int -> int
(** [embed r x] is the residue of a signed integer: [Modarith.reduce ~m:q x]
    without the division.  Requires [x > min_int] (so [|x| < 2^62]); this
    is how centered coefficients enter the residue ring. *)

val reduce : m:int -> int -> int
(** Reduce an arbitrary (possibly negative) integer into [0, m). *)

val center : m:int -> int -> int
(** [center ~m a] maps a residue [a] in [0, m) to its centered representative
    in [(-m/2, m/2]]. *)
