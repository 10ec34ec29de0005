(** Reference CKKS backend: carries the decoded slot values in the clear
    while enforcing the same level/scale discipline as the lattice backend
    and injecting calibrated noise.

    The HALO compiler's behaviour depends only on levels, scales, encryption
    status and operation counts; this backend reproduces those exactly while
    scaling to the paper's workloads (4096 slots, 40-iteration training
    loops), which the real lattice backend cannot reach without the authors'
    GPU library.  The lattice backend ({!Eval}) is used by the test suite to
    validate that programs run unchanged on genuine RLWE ciphertexts.

    Level/scale discipline violations raise {!Halo_error.Backend_error}
    with operation and level context.

    {b Noise.}  [encrypt], [multcc], [multcp], [rescale] and [bootstrap]
    (and a weighted [rot_sum], through [multcp] and [rescale]) add one
    Box–Muller Gaussian per slot.  The calling domain draws every slot's
    two uniforms ({!uniform}) from the state's RNG in slot order; the
    Gaussians and the op's arithmetic then run over fixed chunks of slots
    on {!Domain_pool}.
    Outputs and the RNG position are those of a per-slot loop, for any
    pool size.  Under serving, a batch that runs on a pool worker
    transforms its slots on that worker (nested calls there are plain
    loops); a batch that the calling domain drains posts a nested pool job
    and drains it itself.  Either way the bits are the same, and a state
    must not be shared by two domains at once (its RNG is not). *)

type ct = private {
  data : float array;
  ct_level : int;
  scale_bits : float;  (** log2 of the ciphertext scale *)
  noise_est : float;
      (** interval-style upper bound on the relative error, updated by
          every op with {!Halo_cost.Noise_units.default} so it is directly
          comparable to the static {!Halo.Noise_budget} bound *)
}

type state

val create :
  ?seed:int ->
  ?enc_noise:float ->
  ?mult_noise:float ->
  ?boot_noise:float ->
  ?rescale_noise:float ->
  slots:int ->
  max_level:int ->
  scale_bits:int ->
  unit ->
  state
(** Noise magnitudes are standard deviations in slot-value units:
    [enc_noise] at encryption (default [1e-7]), [mult_noise] relative error
    per multiplication (default [1e-8]), [boot_noise] per bootstrap
    (default [1e-5], matching the oracle's default), [rescale_noise]
    rounding error per rescale (default [2^-25]).  With all four set to
    [0.] the backend is exactly deterministic regardless of RNG position,
    which the resilience tests use for bit-identical replay checks. *)

val name : string
val slots : state -> int
val max_level : state -> int
val level : state -> ct -> int

val rng_state : state -> Random.State.t
(** A copy of the backend's RNG state.  Checkpointing snapshots this at each
    loop-iteration head so a resumed run replays the noise stream
    bit-identically. *)

val set_rng_state : state -> Random.State.t -> unit
(** Reinstall a snapshot taken by {!rng_state} (the argument is copied). *)

val make_ct :
  ?noise_est:float -> data:float array -> level:int -> scale_bits:float ->
  unit -> ct
(** Reassemble a ciphertext from its serialized parts (codec hook for
    [Halo_persist]; takes ownership of [data]).  [noise_est] defaults to
    [0.0] for frames written before the estimator existed. *)

val noise_estimate : state -> ct -> float
(** The ciphertext's running noise upper bound (never consumes RNG). *)

val inflate_noise : state -> ct -> by:float -> ct
(** Add [by] to the ciphertext's noise bound without touching its payload —
    the hook fault injection uses to make silent corruption visible to the
    runtime monitor. *)

val uniform : Random.State.t -> float
(** [Random.State.float rng 1.0] without allocating: the draw the noise
    kernel makes twice per slot.  Same value, same RNG position. *)

val encrypt : state -> level:int -> float array -> ct
val decrypt : state -> ct -> float array

val addcc : state -> ct -> ct -> ct
val subcc : state -> ct -> ct -> ct
val addcp : state -> ct -> float array -> ct
val multcc : state -> ct -> ct -> ct
val multcp : state -> ct -> float array -> ct
val rotate : state -> ct -> offset:int -> ct

val rotate_many : state -> ct -> offsets:int list -> ct list
(** Grouped rotation of one ciphertext; on this backend exactly the
    sequence of single {!rotate} calls (there is no key-switch work to
    share, and cleartext rotation consumes no RNG). *)

val rot_sum : state -> ct -> terms:(int * float array option) list -> ct
(** Fused rotate-and-sum; on this backend exactly the unfused per-term
    sequence — rotations, then each member's {!multcp} + {!rescale} in
    term order, then the add chain — so the noise-stream draws match the
    unfused program and fused vs. unfused runs are bit-identical.  A pure
    group ({!Slots.sum_rotations}, shared with
    [Halo_runtime.Clear_backend]) draws nothing. *)

val rescale : state -> ct -> ct
val modswitch : state -> ct -> down:int -> ct
val bootstrap : state -> ct -> target:int -> ct
val negate : state -> ct -> ct
