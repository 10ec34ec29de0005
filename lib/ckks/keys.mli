(** Key material: ternary secret, public encryption key, and hybrid
    switching keys (relinearization and Galois/rotation keys).

    Switching keys live modulo [Q * P] where [P] is the product of the
    [K = alpha] special primes ({!Params.t}).  A ciphertext polynomial is
    split into digits of [alpha] consecutive primes; ModUp lifts each digit
    to the other primes and the specials by a centered fast base conversion
    (native-int RNS arithmetic, no multi-precision), and ModDown divides
    the switched pair by [P], keeping the added noise at the scale of a
    fresh encryption error (bound in [params.ml]).

    {b Memory-bounded key cache.}  Rotation keys are generated on first use
    and kept in an LRU cache bounded by a byte budget ([HALO_KEY_BUDGET] or
    {!set_key_budget}; 0 = unbounded).  Each key's exact heap footprint is
    measured at generation; when the resident set exceeds the budget, the
    least-recently-used keys are dropped (the relinearization and public
    keys are exempt — they are few and always hot).  Every key is generated
    from its own RNG stream seeded only by the secret and the Galois
    element, so an evicted key regenerates {e bit-identically} on re-miss:
    eviction can never change a ciphertext bit, only timing.  All lookup,
    generation, accounting and eviction run under [rotations_mutex], so the
    cache is safe under [Domain_pool] concurrency. *)

type secret = private { coeffs : int array (* ternary *) }

type switch_key
(** One key per digit ([ceil (max_level / alpha)] of them), stored in the
    NTT domain over the extended chain (all ciphertext moduli followed by
    the special primes): the two key halves and nothing else.  Generation
    draws every random value first, in a fixed order, then builds the
    residues across {!Domain_pool}, so a key's bits do not depend on the
    pool size. *)

type cached_key
(** A resident rotation key plus its measured byte footprint and LRU tick. *)

type cache_stats
(** Mutable cache counters (read them through the [cache_stats] snapshot
    function below). *)

type plain_memo
(** The key set's plaintext memo (see {!plain_eval}). *)

type cache_snapshot = {
  snap_hits : int;  (** lookups served from the resident set *)
  snap_misses : int;  (** first-ever generations *)
  snap_evictions : int;  (** keys dropped under budget pressure *)
  snap_regenerations : int;  (** re-misses regenerated after eviction *)
  snap_digit_hits : int;  (** cross-op digit decompositions reused *)
  snap_resident_bytes : int;  (** current rotation-key footprint *)
  snap_budget : int;  (** configured budget in bytes; 0 = unbounded *)
}

type t = private {
  params : Params.t;
  secret : secret;
  pk0 : Rns_poly.t;
  pk1 : Rns_poly.t;
  s_chain : int array array;
      (** NTT image of the secret at every extended-chain position, computed
          once per key set by [keygen] / [of_parts] (every switching key is
          generated against it) and never persisted. *)
  s_ntt : Rns_poly.t;
  pk0_ntt : Rns_poly.t;
  pk1_ntt : Rns_poly.t;
      (** Full-level [Eval]-domain images of the secret, [pk0] and [pk1],
          derived by [keygen] / [of_parts] and never persisted; encryption
          and decryption use their level prefixes ({!Rns_poly.to_level}).
          [s_ntt]'s limbs are the first [max_level] rows of [s_chain]. *)
  relin : switch_key;
  rotations : (int, cached_key) Hashtbl.t;  (** keyed by Galois element *)
  generated : (int, unit) Hashtbl.t;
      (** Galois elements generated at least once (regeneration counting) *)
  rotations_mutex : Mutex.t;
      (** serializes rotation-key generation, LRU accounting and eviction
          across domains *)
  mutable rng : Random.State.t;
  mutable key_budget : int;  (** bytes; 0 = unbounded *)
  mutable clock : int;  (** LRU clock *)
  mutable resident_bytes : int;
  cache : cache_stats;
  seed_base : int;  (** seeds the per-key generation streams *)
  plain : plain_memo;  (** never persisted; empty after [keygen] and [of_parts] *)
}

val keygen : ?seed:int -> Params.t -> t

val galois_element : Params.t -> offset:int -> int
(** The Galois element [5^offset mod 2n] implementing a left rotation by
    [offset] slots (negative offsets rotate right). *)

val rotation_key : t -> offset:int -> switch_key
(** Fetches (generating and caching on first use, regenerating
    deterministically after eviction) the switching key for the rotation by
    [offset].  The returned key stays valid even if the cache evicts it
    later: eviction only drops the cache's reference. *)

val conjugation_key : t -> switch_key
(** Switching key for the conjugation automorphism [X -> X^{2n-1}], needed
    by the real bootstrapping pipeline's CoeffToSlot. *)

val key_switch : t -> switch_key -> Rns_poly.t -> Rns_poly.t * Rns_poly.t
(** [key_switch keys k d] returns [(u0, u1)] such that
    [u0 + u1 * s ~ d * s'] where [s'] is the key [k] was generated for.
    Equivalent to [apply keys k (decompose keys d)]. *)

(** {2 Memory budget and cache statistics} *)

val parse_budget : string -> int
(** Parses a byte budget with optional [K]/[M]/[G] suffix (powers of 1024).
    The empty string means unbounded (0).  Raises [Invalid_argument] on
    malformed input. *)

val set_key_budget : t -> int -> unit
(** Sets the budget in bytes (0 = unbounded) and evicts immediately if the
    resident set no longer fits.  Overrides [HALO_KEY_BUDGET]. *)

val cache_stats : t -> cache_snapshot
(** Consistent snapshot of the cache counters (taken under the mutex). *)

val reset_cache_stats : t -> unit
(** Zeroes the counters (not the resident-set accounting). *)

val record_digit_hit : t -> unit
(** Counts one cross-op digit-decomposition reuse (see [Eval]). *)

(** {2 Hoisted key switching}

    [key_switch] split into its two halves so the expensive half can be
    shared.  [decompose] performs ModUp (the digits, lifted by a centered
    base conversion to the NTT domain over the extended chain) once;
    [apply] is the cheap per-key inner product plus ModDown.  A group of
    rotations of one ciphertext decomposes [c1] once and calls
    [apply_rotated] per offset — every result is bit-identical to the
    corresponding single-rotation key switch because the whole path is
    exact modular integer arithmetic and the centered conversion commutes
    with the Galois automorphisms. *)

type decomposed
(** Reusable mod-up product: NTT-domain digits over the extended chain.  A
    digit's own limbs are the [Eval]-domain input's limbs, shared, not
    copied. *)

val decompose : t -> Rns_poly.t -> decomposed

val apply : t -> switch_key -> decomposed -> Rns_poly.t * Rns_poly.t
(** The per-key half of [key_switch]: digit/key inner product and ModDown.
    The result is in the [Eval] domain. *)

val apply_rotated : t -> switch_key -> k:int -> decomposed -> Rns_poly.t * Rns_poly.t
(** [apply_rotated keys sk ~k dec] key-switches the Galois automorphism
    [X -> X^k] of the decomposed polynomial, reading the shared digits
    through the evaluation-domain slot permutation of [k] (fused into the
    inner product; the digits are not copied).  [sk] must be the switching
    key for that automorphism.  A one-member {!switch_group}. *)

(** {2 Rotate-and-sum groups}

    One kernel runs every digit/key MAC: {!switch_group} visits each
    extended-chain position once per group, in one pool dispatch, and at
    each position adds every member's inner product (read through its
    Galois permutation, times its plaintext row if weighted) into running
    sums that stay unreduced while {!lazy_terms} and {!weighted_terms}
    allow, and closes them with one hardware [mod] each.  At the ciphertext
    positions the same visit sums the members' Q-side terms.  ModDown runs
    once for the group.  Modular addition is exact and associative, so the
    result is bit-identical whether the members share one decomposition
    (lazy) or each brings its own (eager), for any pool size. *)

type weight = {
  rows : int array array;
      (** plaintext factor as NTT-domain residues per extended-chain
          position of the group's level (see {!plain_weight}) *)
  comp : int array array;
      (** [comp.(pos)]: the companion row [c * 2^31 mod q] of [rows.(pos)]
          where the group's {!weighted_terms} is at least 1 (required
          there), [[||]] elsewhere: where no companion term fits, the member
          reduces each product as it adds it. *)
}

type member = {
  galois : int;  (** the member's Galois element ([1]: no rotation) *)
  switch : (switch_key * decomposed) option;
      (** the key and decomposition it switches with; [None] for a member
          that contributes only its Q-side term (the unrotated one) *)
  coeff : weight option;
      (** plaintext factor; all members of a group are weighted or none is *)
}

val switch_group : t -> ?c0:Rns_poly.t -> member list -> Rns_poly.t * Rns_poly.t
(** [switch_group keys ?c0 members] returns [(u0 + qside, u1)], where
    [(u0, u1)] is the ModDown of the members' summed key switches and
    [qside] the sum over every member of [automorphism ~k:galois c0], times
    its plaintext factor when weighted ([0] without [c0]).  Both results
    are [Eval]-domain and freshly allocated.  At least one member must
    switch, every decomposition must have one level, [c0] must be
    [Eval]-domain at that level and a weighted member must carry a
    companion row wherever {!weighted_terms} is at least 1;
    [Invalid_argument] otherwise. *)

val weight_of_rows : Params.t -> level:int -> int array array -> weight
(** The weight of NTT-domain rows at the positions of a level-[level]
    group, with the companion rows that group uses. *)

val lazy_terms : q:int -> per_term:int -> int
(** The largest [B] with [B * per_term * (q - 1)^2 + q < 2^62]: how many
    terms, each at most [per_term] raw products below [q], the group MAC
    sums onto a reduced residue before it reduces again: [per_term] is
    dnum for a pure term, one for a weighted Q-side term. *)

val raw_mac : q:int -> digits:int -> bool
(** Whether the MAC at modulus [q] sums [digits] raw digit/key products
    before one reduction ([digits * (q - 1)^2 + q < 2^62]); where it does
    not, each product is reduced as it is added.  Either way the result is
    the exact residue. *)

val weighted_terms : q:int -> digits:int -> int
(** How many weighted terms with a companion row the group MAC sums onto a
    reduced residue before it reduces again.  A term splits the raw sum
    [x < digits * (q - 1)^2] as [hi * 2^31 + lo] and adds
    [hi * c' + lo * c], at most [((x_max lsr 31) + min x_max (2^31 - 1)) *
    (q - 1)]; the result is the largest [B] with [B] such terms [+ q < 2^62],
    and [0] where none fits or {!raw_mac} fails (the 31-bit base prime). *)

val convert : Params.t -> Params.basis -> int array array -> int -> int array -> unit
(** [convert params basis ys t dst] writes over [dst] the centered fast
    base conversion of the scaled source limbs [ys] ([ys.(i)] in
    [[0, b_i)], one per source prime of [basis]) to extended-chain
    position [t]: [sum_i center(ys.(i).(j)) * (B / b_i) mod m_t], one pass
    over the slots, each slot's sum closed with one [mod] per chunk of
    [basis.chunks.(t)]. *)

(** {2 Plaintext memo}

    Each key set keeps one content-keyed memo of encoded real plaintexts.
    The key is the exact bits of the scale and of the slot values padded
    with zeros to [slots] ([-0.0] and [0.0] are different keys), compared in
    full on a hit.  An entry holds the encoder's centred coefficients and,
    filled on first use, their NTT image at each extended-chain position
    and, for weighted rotate-and-sum groups, the companions of those rows;
    the level is not part of the key, since row [t] is the same at every
    level.  The memo is bounded by {!plain_memo_cap} bytes with LRU
    eviction, is safe under concurrent callers, and is never persisted.
    Encoding is deterministic, so a hit, a miss and a re-encode after
    eviction return the same integers.  The returned arrays are shared
    with the memo and must not be mutated. *)

val plain_memo_cap : int
(** The memo's byte cap (64 MiB). *)

val plain_centered : t -> scale:float -> float array -> int array
(** Centred integer coefficients of [values] encoded at [scale], as
    {!Encoding.encode_real_centered} computes them (values past [slots] are
    dropped). *)

val plain_eval : t -> scale:float -> level:int -> float array -> int array array
(** NTT-domain residues of the same plaintext at chain positions
    [0 .. level-1]: the [Eval]-domain mod-Q encoding at [level]. *)

val plain_weight : t -> scale:float -> level:int -> float array -> weight
(** The plaintext as a group member's [coeff] at [level]: its rows at every
    extended-chain position of that level, and the companion rows the
    group uses, built the first time a weighted group needs them and
    charged to the memo's cap with the rows. *)

val plain_memo_usage : t -> int * int
(** Resident entries and their bytes. *)

val relin_key : t -> switch_key

(** {2 Codec hooks}

    Raw accessors and constructors used by [Halo_persist] to round-trip key
    material through the durable artifact store.  [switch_key_of_raw] and
    [of_parts] validate shapes against the parameter set and raise
    [Invalid_argument] on any mismatch. *)

val rng_state : t -> Random.State.t
(** Copy of the key set's RNG (consumed by encryption), so a restored key
    set continues the identical stream.  Rotation-key generation draws from
    per-key derived streams instead, so cache state never perturbs it. *)

val set_rng_state : t -> Random.State.t -> unit

val switch_key_raw : switch_key -> int array array array * int array array array
(** [(k0, k1)] with [k0.(digit).(chain_pos)] an NTT-domain residue vector. *)

val switch_key_of_raw :
  Params.t -> k0:int array array array -> k1:int array array array -> switch_key

val rotation_entries : t -> (int * switch_key) list
(** Cached rotation keys, keyed by Galois element, in sorted order.  A key
    evicted before the snapshot is simply absent; it regenerates
    bit-identically on demand after restore. *)

val of_parts :
  Params.t ->
  secret:int array ->
  pk0:Rns_poly.t ->
  pk1:Rns_poly.t ->
  relin:switch_key ->
  rotations:(int * switch_key) list ->
  rng:Random.State.t ->
  t
(** Restored entries are marked as previously generated and the resident
    set is brought under the (environment-configured) budget immediately;
    deterministic regeneration keeps any eviction here bit-invisible. *)
