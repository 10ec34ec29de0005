(** Backend interface for the interpreter.

    Three implementations ship with the library: [Halo_ckks.Ref_backend]
    (cleartext-tracking with calibrated noise — scales to the paper's
    workloads), {!Lattice_backend} (real RLWE ciphertexts at
    test-friendly parameters) and {!Clear_backend} (the exact cleartext
    semantics behind {!Interp.reference}).  The first two enforce the same
    level/scale discipline, so a program that runs on one runs on the
    other; the clear backend checks nothing and adds no noise.

    Discipline violations raise {!Halo_error.Backend_error} carrying the
    backend's {!name}, the operation and the operand level; decorators such
    as {!Faults} may additionally raise the transient-fault exceptions of
    {!Halo_error}, which the resilient runtime retries. *)

module type S = sig
  type ct
  type state

  val name : string
  (** Short identifier used in error sites and reports, e.g. ["ref"],
      ["lattice"], ["faulty+ref"]. *)

  val slots : state -> int
  val max_level : state -> int
  val level : state -> ct -> int
  val encrypt : state -> level:int -> float array -> ct
  val decrypt : state -> ct -> float array
  val addcc : state -> ct -> ct -> ct
  val subcc : state -> ct -> ct -> ct
  val addcp : state -> ct -> float array -> ct
  val multcc : state -> ct -> ct -> ct
  val multcp : state -> ct -> float array -> ct
  val rotate : state -> ct -> offset:int -> ct

  val rotate_many : state -> ct -> offsets:int list -> ct list
  (** Grouped rotation of one ciphertext, one result per offset (offset 0
      returns the input).  Semantically exactly the sequence of single
      [rotate] calls — backends with hoistable key-switch work (the
      lattice backend) share the digit decomposition across the group;
      others may simply iterate [rotate].  Results must be bit-identical
      to the sequential rotates. *)

  val rot_sum : state -> ct -> terms:(int * float array option) list -> ct
  (** Fused rotate-and-sum of one ciphertext.  Each term is an offset plus
      an optional plaintext coefficient; a weighted group (all [Some])
      computes Σ rescale(coeff ⊙ rot(src)) — each member's multiply and
      rescale are absorbed, so the result sits one level below the source
      at canonical scale — while a pure group (all [None]) computes
      Σ rot(src) level/scale-preserving.  Backends with lazy key switching
      (the lattice backend) share the digit decomposition across members
      and pay a single mod-down; others evaluate the exact per-term
      unfused sequence, keeping fused and unfused runs bit-identical. *)

  val rescale : state -> ct -> ct
  val modswitch : state -> ct -> down:int -> ct
  val bootstrap : state -> ct -> target:int -> ct
  val negate : state -> ct -> ct

  val noise_estimate : state -> ct -> float
  (** The ciphertext's running noise upper bound: an interval-style
      estimate updated by every op with the shared
      {!Halo_cost.Noise_units} table, so it is directly comparable to the
      static {!Halo.Noise_budget} bound.  Reading it must not consume RNG
      or otherwise perturb execution. *)

  val inflate_noise : state -> ct -> by:float -> ct
  (** A copy of the ciphertext with [by] added to its noise bound and the
      payload untouched.  Decorators use this to surface silently injected
      corruption (noise spikes) to the runtime monitor. *)
end
