(** Real CKKS bootstrapping: ModRaise, CoeffToSlot, EvalMod, SlotToCoeff.

    This is the full cryptographic pipeline (Cheon et al., "Bootstrapping
    for approximate homomorphic encryption"), running on genuine RLWE
    ciphertexts with no secret-key access — unlike {!Bootstrap_oracle},
    which the compiler/runtime use for scale (see DESIGN.md):

    + {b ModRaise}: re-embed the exhausted ciphertext's residues into the
      full modulus chain; it then decrypts to [m + q0 * I] where [I] has
      small integer coefficients bounded by the secret's mass.
    + {b CoeffToSlot}: apply the inverse canonical embedding homomorphically
      (two Halevi–Shoup matrix products per coefficient half, using the
      conjugation automorphism), so the slots hold the scaled coefficients
      [t_k = a_k / q0 + I_k].
    + {b EvalMod}: clear the integer part with the classic approximation
      [x mod q0 ~ q0/(2 pi) * sin(2 pi x / q0)], evaluated as a Chebyshev
      series of log depth.
    + {b SlotToCoeff}: apply the forward embedding to return to coefficient
      form.

    The pipeline consumes ~11 levels, so with [max_level = 16] a level-1
    ciphertext is restored to level ~5.  Accuracy is limited by the sine
    approximation to roughly [ (2 pi m / q0)^2 / 6 ] relative error —
    production implementations sharpen this with arcsine corrections, which
    is orthogonal to anything the compiler sees. *)

type ctx

val make_ctx : ?sine_degree:int -> ?range:int -> Params.t -> ctx
(** Precompute the DFT diagonals and the sine Chebyshev coefficients.
    [range] bounds the integer part [I] (default: a 4-sigma bound from the
    dense ternary secret); [sine_degree] defaults to a degree adequate for
    that range. *)

val bootstrap : ctx -> Keys.t -> Eval.ct -> Eval.ct
(** [bootstrap ctx keys ct] takes a ciphertext at any level (typically 1)
    holding values encoded at the default scale, and returns a ciphertext
    with (approximately) the same values at level
    [max_level - consumed ctx].  Values must be bounded (|v| <~ 0.5) so the
    message stays far below [q0]. *)

val consumed : ctx -> int
(** Levels consumed by the pipeline. *)
