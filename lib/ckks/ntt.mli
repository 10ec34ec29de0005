(** Negacyclic number-theoretic transform over [Z_q[X]/(X^n + 1)].

    A [ctx] caches the twiddle factors for one [(q, n)] pair, together with
    their Shoup companions (see {!Modarith.mul_shoup}), so every butterfly
    multiply is a multiply-shift-subtract instead of a hardware division.
    The forward transform maps coefficient vectors to evaluations at the odd
    powers of a primitive [2n]-th root of unity (the psi twist is merged
    into the twiddles); pointwise products in that domain are negacyclic
    convolutions in the coefficient domain.

    The kernel is fixed per context by the modulus: for [q < 2^29] the
    transforms are lazy radix-4 (Harvey butterflies, values kept in
    [[0, 4q)] forward and [[0, 2q)] inverse, reduced once at the end), and
    for larger moduli fully reduced radix-2.  Both produce the same exact
    residues in [[0, q)], so the choice is invisible to callers.  Pointwise
    products reduce by one hardware [mod] each ({!Modarith.reduce}): both
    factors vary, so there is no companion to precompute.

    The in-place variants are the kernel-layer entry points: they mutate
    their argument and allocate nothing. *)

type ctx

val make_ctx : q:int -> n:int -> ctx
(** Requires [q] prime with [q = 1 (mod 2n)] and [n] a power of two. *)

val q : ctx -> int
val n : ctx -> int

val forward_in_place : ctx -> int array -> unit
(** Coefficient domain -> evaluation domain, in place. *)

val inverse_in_place : ctx -> int array -> unit
(** Evaluation domain -> coefficient domain, in place (exact inverse of
    {!forward_in_place}). *)

val forward : ctx -> int array -> int array
(** Functional: returns a fresh array in the NTT domain. *)

val inverse : ctx -> int array -> int array

val pointwise_mul : ctx -> int array -> int array -> int array
(** Slotwise product of two evaluation-domain vectors. *)

val pointwise_mul_in_place : ctx -> int array -> int array -> unit
(** [pointwise_mul_in_place ctx a b] stores the slotwise product in [a]. *)

val negacyclic_mul : ctx -> int array -> int array -> int array
(** Convenience: [inverse (forward a . forward b)]. *)

val eval_perm : ctx -> k:int -> int array
(** The slot permutation implementing the Galois automorphism [X -> X^k]
    (odd [k]) directly in the evaluation domain: if [b] is the transform of
    [p] then the transform of [p(X^k)] is [i -> b.(perm.(i))].  Cached per
    [(n, k)]; safe to call from any domain. *)
