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
    [w < m].  It is the multiply by a fixed constant that carries a stored
    companion: the NTT twiddles, the base-conversion scalings
    [(B / b_i)^-1], [P^-1] and the rescale inverses [q_l^-1].  A product
    whose two factors both vary reduces with {!reduce} instead. *)

val reduce : m:int -> int -> int
(** [reduce ~m a] is the residue of any integer [a] in [[0, m)]: one
    hardware [mod], then one branchless correction of a negative remainder.
    Every int qualifies, [min_int] and [max_int] included.  This is the
    one reduction of a value whose factors both vary -- pointwise products,
    the closes of the key-switch MAC and of the base conversion, the
    embedding of centred coefficients and the key-generation products;
    Shoup multiplication ({!mul_shoup}) stays where one factor is a fixed
    constant with a stored companion.  On a CPU with a slow 64-bit divider
    (before Ice Lake) this rule costs more than a multiply-based reducer. *)

val center : m:int -> int -> int
(** [center ~m a] maps a residue [a] in [0, m) to its centered representative
    in [(-m/2, m/2]]. *)
