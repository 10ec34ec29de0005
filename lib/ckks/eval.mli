(** Homomorphic evaluation on RNS-CKKS ciphertexts: the operation set of the
    paper's Section 2 (addcc/addcp, multcc/multcp, rotate, rescale,
    modswitch), plus encryption and decryption.

    Every ciphertext tracks its exact floating-point [scale]; [rescale]
    divides it by the dropped prime, [multcc] multiplies the operand scales.
    Level semantics follow the paper: a ciphertext at level [l] carries [l]
    residue polynomials and any operation requires [l >= 1]. *)

type ct = private {
  c0 : Rns_poly.t;
  c1 : Rns_poly.t;
  scale : float;
  mutable digits : (Rns_poly.t * Keys.decomposed) option;
      (** cross-op digit memo: the mod-up decomposition of [c1] tagged with
          the [c1] object it was computed from; valid only while the tag is
          physically equal to the current [c1] (see {!set_digit_cache}) *)
  mutable noise_est : float;
      (** interval-style upper bound on the relative error, updated by
          every op with {!Halo_cost.Noise_units.default}'s per-op rules so
          it is directly comparable to the static {!Noise_budget} bound *)
}

val level : ct -> int
val scale : ct -> float

val noise_est : ct -> float
(** The running noise upper bound (pure bookkeeping, never consumes RNG). *)

val set_noise_est : ct -> float -> unit
(** Overwrite the bound in place — used by the bootstrapping oracle (whose
    result noise is the bootstrap unit, not a fresh encryption's) and by
    the persistence codec when reassembling checkpointed ciphertexts. *)

val inflate_noise : ct -> by:float -> ct
(** Functional copy with [by] added to the bound; the payload (and any
    carried digit memo) is untouched.  Fault injection uses this to make
    silent noise spikes visible to the runtime monitor. *)

val of_parts : c0:Rns_poly.t -> c1:Rns_poly.t -> scale:float -> ct
(** Assemble a ciphertext from raw polynomials (used by the bootstrapping
    pipeline's ModRaise, which reinterprets residues over a larger
    modulus). *)

val encrypt : Keys.t -> level:int -> float array -> ct
(** Public-key encryption of real slot values at the default scale
    (shorter vectors are zero-padded to [slots]).  Like every op that
    encodes ([encrypt_sym], [addcp], [multcp]...), raises
    [Invalid_argument] on a value {!Encoding} rejects. *)

val encrypt_sym : Keys.t -> level:int -> float array -> ct
(** Symmetric encryption; used by tests and by the bootstrapping oracle. *)

val decrypt : Keys.t -> ct -> float array

val decrypt_complex : Keys.t -> ct -> Complex.t array

val addcc : Keys.t -> ct -> ct -> ct
val subcc : Keys.t -> ct -> ct -> ct
val addcp : Keys.t -> ct -> float array -> ct
(** The plaintext is encoded at the ciphertext's scale through the key
    set's plaintext memo ({!Keys.plain_eval}) and added in [c0]'s domain. *)

val multcc : Keys.t -> ct -> ct -> ct
(** Includes relinearization.  The result scale is the product of the operand
    scales; callers are expected to [rescale] afterwards. *)

val multcp : Keys.t -> ct -> float array -> ct
(** The plaintext is encoded at the default scale, through the key set's
    plaintext memo. *)

val rotate : Keys.t -> ct -> offset:int -> ct
(** Circular left rotation of the slot vector by [offset]. *)

val rotate_many : Keys.t -> ct -> offsets:int list -> ct list
(** Hoisted rotations of one ciphertext: performs the key-switch digit
    decomposition of [c1] once and applies each offset's Galois automorphism
    and switching key to the shared digits ({!Keys.apply_rotated}).  Each
    element of the result is bit-identical to [rotate ~offset] for the
    corresponding offset (including zero offsets, which return the input),
    while paying the decomposition cost once instead of once per offset. *)

val conjugate : Keys.t -> ct -> ct
(** Slot-wise complex conjugation (the Galois automorphism [X -> X^{-1}]). *)

val multcp_complex : Keys.t -> ct -> Complex.t array -> ct
(** Plaintext multiplication by a complex vector (used by the bootstrapping
    pipeline's homomorphic DFT matrices). *)

val rescale : Keys.t -> ct -> ct
(** Drops the last prime and divides by it ({!Rns_poly.rescale_last}),
    keeping each polynomial's domain: an NTT-resident ciphertext stays
    NTT-resident. *)

val modswitch : Keys.t -> ct -> down:int -> ct
val negate : Keys.t -> ct -> ct

val multcp_exact : Keys.t -> ct -> float array -> target:float -> ct
(** Plaintext multiplication immediately followed by a rescale, with the
    plaintext encoded at the scale that makes the result's scale exactly
    [target].  This is how practical RNS-CKKS implementations absorb the
    drift of primes that only approximate the scale; the deep Chebyshev
    trees of {!Bootstrap_real} compound that drift multiplicatively and
    need the exact form.  Consumes one level. *)

val adjust_scale : Keys.t -> ct -> target:float -> ct
(** Multiply by an exact-scale plaintext one: rescales the ciphertext's
    scale to exactly [target] at the cost of one level. *)

(** {2 Cross-op digit caching and lazy key switching} *)

val set_digit_cache : bool -> unit
(** Enables/disables the cross-op digit memo (default on, or off when
    [HALO_DIGIT_CACHE] is [0]/[off]/[false]).  Purely a time/memory trade:
    results are bit-identical either way, because the decomposition is a
    deterministic function of [c1].  Reuses are counted in the key-set
    cache statistics and fold into [Stats.decompositions_saved]. *)

val rot_sum :
  Keys.t -> ?mode:[ `Lazy | `Eager ] -> ct -> terms:(int * float array option) list -> ct
(** Fused rotate-and-sum reduction: [sum_g coeff_g * rotate(a, o_g)] with
    one {!Keys.switch_group} (one visit per chain position, the members'
    Q-side terms included) and the mod-down paid once for the whole group.  Terms must be uniformly
    pure ([None] coefficients: plain rotate-and-sum, level preserved) or
    weighted ([Some] coefficients, encoded at the default scale through
    the key set's plaintext memo: the
    matvec_diag shape, consuming one level via a single final rescale).
    Zero offsets contribute the (scaled) input directly without a key
    switch.

    [`Lazy] (default) shares one digit decomposition of [c1] across the
    group; [`Eager] recomputes it per member (set [HALO_EAGER_SWITCH=1] to
    default to eager).  The two modes are bit-identical down to the last
    bit: decomposition is deterministic and the extended-basis MAC
    accumulation is exact modular arithmetic.  Raises [Invalid_argument]
    on an empty group, mixed pure/weighted terms, or a weighted group below
    level 2. *)
