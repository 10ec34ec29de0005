(** Polynomials of [Z_Q[X]/(X^n + 1)] in residue-number-system form, over the
    ciphertext modulus chain of a {!Params.t}.

    A polynomial at level [l] carries [l] residue vectors, one per prime
    [moduli.(0) .. moduli.(l-1)], each tagged with the {!domain} it lives
    in: [Coeff] (coefficients) or [Eval] (the NTT evaluation domain).  The
    kernel-layer invariant is that homomorphic pipelines stay NTT-resident:
    [mul] and the [Eval]-domain [automorphism] never leave the evaluation
    domain, additions harmonize mixed operands towards [Eval],
    [rescale_last] keeps its operand's domain (inverse-transforming only
    the dropped limb), and whole limbs are inverse-transformed only where
    coefficients are read: the key-switch decomposition and decoding
    ({!centered_coeffs}).  Both representations are exact, so a value's
    coefficients are bit-identical whichever path produced them.

    The level management operations implement exactly the paper's
    abstraction (Figure 1): [rescale] and [modswitch] drop the last residue
    polynomial, the former dividing the value by the dropped prime.
    Per-limb loops are fanned out over {!Domain_pool}. *)

type domain = Coeff | Eval

type t = private { level : int; domain : domain; res : int array array }

val level : t -> int
val domain : t -> domain

val zero : Params.t -> level:int -> t
(** The zero polynomial, [Coeff]-tagged (zero is zero in either
    representation). *)

val of_centered_coeffs : Params.t -> level:int -> int array -> t
(** Embed an integer polynomial: each coefficient, of any sign and size, is
    reduced into each modulus by {!Modarith.reduce}.  Result is in the
    [Coeff] domain. *)

val of_residues : ?domain:domain -> int array array -> t
(** Takes ownership of the given residue vectors ([domain] defaults to
    [Coeff]). *)

val to_eval : Params.t -> t -> t
(** Forward-NTT every limb (physical identity when already [Eval]). *)

val to_coeff : Params.t -> t -> t
(** Inverse-NTT every limb (physical identity when already [Coeff]). *)

val centered_coeffs : Params.t -> t -> int array
(** Recover centered integer coefficients from the base residue (converting
    only that limb when the polynomial is NTT-resident).  Correct whenever
    the true centered coefficients are below [moduli.(0) / 2] in magnitude,
    which encryption parameters guarantee for decrypted plaintexts (see
    DESIGN.md). *)

val add : Params.t -> t -> t -> t
val sub : Params.t -> t -> t -> t
(** Pointwise in either domain; mixed-domain operands are lifted to [Eval].
    Operands must share a level. *)

val neg : Params.t -> t -> t

val mul : Params.t -> t -> t -> t
(** Negacyclic product: lifts both operands to [Eval] and multiplies
    pointwise, returning an [Eval]-domain result so chained operations pay
    no inverse transform.  Operands must share a level. *)

val automorphism : Params.t -> k:int -> t -> t
(** [X -> X^k] for odd [k], the Galois action implementing slot rotation.
    On an [Eval]-domain operand this is a cached slot permutation and stays
    NTT-resident; on a [Coeff]-domain operand it is the signed coefficient
    shuffle.  [k] is normalized modulo [2n] first. *)

val automorphism_add_into : Params.t -> k:int -> t -> into:t -> unit
(** [automorphism_add_into params ~k a ~into] adds [automorphism ~k a] into
    [into] in place, in one pass per limb and bit-identical to
    [add (automorphism ~k a) into].  Both operands must be [Eval]-domain at
    one level; [into] must be owned by the caller (e.g. a fresh key-switch
    result). *)

val rescale_last : Params.t -> t -> t
(** Exact RNS rescale: drops the last residue and divides by its prime,
    using the precomputed {!Params.rescale_inv} constants.  Keeps the
    operand's domain: an [Eval] operand pays one inverse transform (the
    dropped limb) and one forward transform per remaining limb, and its
    result is the NTT image of the [Coeff] path's, bit for bit.  Requires
    level >= 2. *)

val to_level : Params.t -> level:int -> t -> t
(** Drop residues down to [level] (a single [Array.sub]). *)
