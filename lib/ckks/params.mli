(** RNS-CKKS parameter sets.

    A parameter set fixes the ring degree [n], the modulus chain (one base
    prime that is never dropped, [max_level - 1] rescale primes close to the
    encoding scale), the special primes reserved for key switching, the
    default encoding scale and the error distribution width.

    Key switching is hybrid: the ciphertext chain splits into digits of
    [alpha] consecutive primes, and the switching keys live modulo [Q * P]
    where [P] is the product of [K = alpha] special primes below [2^29].
    [alpha] is fixed by one rule, [max 2 (ceil (max_level / 4))], so the full
    chain has at most 4 digits ([Params.test_deep]: 4 digits of 4 primes and
    4 special primes).  The error bound and the lazy-reduction bounds of the
    key-switch kernels are stated in [params.ml].

    The paper's evaluation uses [n = 2^17, log Q = 1479, R_f = 2^51, L = 16],
    which needs multi-precision arithmetic; we expose that set as a
    descriptor ({!paper_spec}) for printing Table 1, and run the lattice
    backend on small NTT-friendly parameter sets whose arithmetic fits the
    63-bit native [int] (see DESIGN.md, substitution table). *)

(** Fast base conversion tables from a set of source primes (product [B])
    to every position of the extended chain ([moduli] then [specials]). *)
type basis = private {
  src : int array;  (** extended-chain positions of the source primes *)
  src_q : int array;  (** the source primes [b_i] *)
  half : int array;  (** [half.(i) = b_i / 2], the centering threshold *)
  hat_inv : int array;  (** [hat_inv.(i) = (B / b_i)^-1 mod b_i] *)
  hat_inv_shoup : int array;  (** Shoup companions of [hat_inv] *)
  hat : int array array;  (** [hat.(t).(i) = (B / b_i) mod m_t] *)
  chunks : int array array;
      (** [chunks.(t)]: exclusive ends of the source chunks after which the
          one-pass conversion into [m_t] reduces its signed sum, the last
          one the source count.  A chunk is the longest run whose worst
          case, [sum half_i * (m_t - 1)] plus [m_t - 1] for a carried
          remainder, stays below [2^62] ([params.ml]); [[| k |]] where the
          whole sum fits. *)
  neg_prod : int array;  (** [neg_prod.(t) = -B mod m_t] *)
}

type t = private {
  n : int;  (** polynomial modulus degree (power of two) *)
  slots : int;  (** [n / 2] *)
  max_level : int;  (** [L]: number of ciphertext moduli *)
  moduli : int array;  (** length [max_level]; [moduli.(0)] is the base *)
  specials : int array;  (** the [K] key-switching special primes *)
  alpha : int;  (** primes per key-switching digit; also [K] *)
  scale : float;  (** default encoding scale *)
  sigma : float;  (** error distribution standard deviation *)
  ntts : Ntt.ctx array;
      (** NTT context per extended-chain position: the [max_level]
          ciphertext moduli, then the special primes *)
  rescale_inv : int array array;
      (** [rescale_inv.(j).(i) = moduli.(j)^-1 mod moduli.(i)] for [i < j]:
          the constants of an exact rescale dropping prime [j]. *)
  rescale_inv_shoup : int array array;
      (** Shoup companions of {!rescale_inv} (see {!Modarith.mul_shoup}). *)
  mod_up : basis array array;
      (** [mod_up.(j).(s - 1)]: ModUp tables of digit [j] cut to its first
          [s] primes (the last digit below full level is partial). *)
  mod_down : basis;  (** ModDown tables from the special primes *)
  p_inv : int array;  (** [p_inv.(t) = P^-1 mod moduli.(t)] *)
  p_inv_shoup : int array;  (** Shoup companions of {!p_inv} *)
}

val make :
  ?sigma:float ->
  log_n:int ->
  max_level:int ->
  base_bits:int ->
  scale_bits:int ->
  unit ->
  t
(** Builds a parameter set.  Requires [base_bits <= 31] and
    [scale_bits < base_bits].  Rescale primes are chosen just below
    [2^scale_bits] so that rescaling approximately preserves the scale, the
    special primes are the [alpha] largest NTT primes below [2^29] that are
    not ciphertext primes.  Raises
    [Invalid_argument] unless [log2 P >= log2 Q_I] in bit lengths for every
    digit [I]: the key-switching noise precondition. *)

val of_moduli : ?sigma:float -> log_n:int -> scale_bits:int -> int array -> t
(** The parameter set over an explicit ciphertext chain (base prime first,
    each an NTT prime for [2^log_n] below [2^31]), with the special primes
    and tables {!make} would choose for it and the default scale
    [2^scale_bits], but without {!make}'s noise precondition: digits wider
    than [P] are accepted.  Key switching over such a chain is still exact
    modular arithmetic, only noisier than a fresh encryption.  Kernel tests
    use it to reach arithmetic bounds that {!make}'s chains do not, such as
    rescale primes just below [2^30].  Raises [Invalid_argument] on an empty
    chain or a modulus outside [(1, 2^31)]. *)

val test_small : unit -> t
(** [n = 2^10], [L = 8] — fast enough for unit tests. *)

val test_deep : unit -> t
(** [n = 2^11], [L = 16] — matches the paper's level budget. *)

(** Descriptor of the paper's Table 1 parameter set (not runnable on native
    ints; used for printing and for the abstract compiler configuration). *)
type spec = { spec_log_n : int; spec_log_q : int; spec_scale_bits : int; spec_max_level : int }

val paper_spec : spec

val modulus_at : t -> level:int -> int
(** The prime dropped when rescaling from [level], i.e. [moduli.(level - 1)]. *)

val ntt_at : t -> idx:int -> Ntt.ctx
(** The NTT context at extended-chain position [idx]. *)

val chain_len : t -> int
(** [max_level + K]: the length of the extended chain. *)

val digits : t -> level:int -> int
(** [ceil (level / alpha)]: the key-switching digits of a level-[level]
    ciphertext. *)

val fingerprint : t -> int64
(** FNV-1a hash of the fields that determine ciphertext compatibility
    ([n], [max_level], the modulus chain, every special prime, the scale and
    the error width).  The durable artifact store stamps every frame with
    this value so that bytes written under one parameter set are rejected
    loudly — never decoded wrongly — under another. *)
