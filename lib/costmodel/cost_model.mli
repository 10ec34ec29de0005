(** Latency model for RNS-CKKS operations, calibrated to the measurements
    published in the HALO paper (ASPLOS'25, Tables 2 and 3), which were taken
    with the GPU-accelerated HEaaN library on an RTX A6000.

    The paper reports latencies for [multcc], [rescale] and [modswitch] at
    operand levels 1, 5, 10 and 15 (Table 2), and for [bootstrap] at target
    levels 4, 7, 10, 13 and 16 (Table 3).  Between anchor points we
    interpolate linearly; outside we extrapolate from the nearest segment.
    This preserves the property the compiler exploits: latency grows roughly
    linearly with the number of residue polynomials processed.

    Operations the paper does not report are estimated as follows and the
    estimates only affect absolute latencies, never the relative ordering of
    compiler strategies (all strategies execute the same arithmetic ops and
    differ in bootstrapping/modswitch/pack behaviour):

    - [addcc]/[addcp]/[subcc]: element-wise over residues, modeled at 2x the
      cost of [modswitch] at the same level (both are memory-bound sweeps).
    - [multcp]: plaintext multiplication needs no relinearization; modeled at
      40% of [multcc].
    - [rotate]: dominated by key switching, same asymptotics as [multcc];
      modeled at 90% of [multcc].
    - [encode]: modeled as [modswitch]-like (FFT + scaling sweep).

    {1 Machine profiles}

    The paper numbers describe one machine (an RTX A6000 running HEaaN).
    Every latency below is additionally multiplied by the per-op scale
    factors of the active {!profile}, so the same model can be re-anchored
    to a different machine without touching the anchor tables.  The default
    {!paper_gpu} profile has every scale at exactly 1.0 — the identity, so
    default behaviour (virtual clocks, checkpointed statistics, serving
    deadlines) is bit-for-bit what the uncalibrated model produced.  The
    {!host} profile is calibrated against the committed
    [BENCH_kernels.json] / [BENCH_rotations.json] measurements of this
    repository's software backend so that {e predicted} orderings match
    {e measured} orderings on the machine the benches ran on.  Select with
    [HALO_COST_PROFILE=host] (read once at module load) or
    {!set_profile}. *)

type profile = {
  profile_name : string;
  multcc_scale : float;  (** scales [Multcc] and [Multcp] *)
  rescale_scale : float;  (** scales [Rescale] *)
  modswitch_scale : float;
      (** scales [Modswitch], [Encode] and the add family (memory sweeps) *)
  bootstrap_scale : float;  (** scales Table 3 bootstrap latencies *)
  switch_scale : float;
      (** scales the key-switch aggregate: [Rotate], the decompose / MAC /
          mod-down split and [keygen_us] *)
  decompose_fraction : float;
      (** digit-decomposition share of the aggregate, in the paper's
          fraction-of-one-multcc convention (paper: 0.50) *)
  mac_fraction : float;  (** per-digit MAC share (paper: 0.25) *)
  moddown_fraction : float;  (** extended-basis mod-down share (paper: 0.15) *)
  lazy_mac_overhead : float;
      (** extra extended-basis lift each {e lazy} rot-sum member pays, as a
          fraction of one MAC (paper: 0.0; host: calibrated so lazy loses to
          hoisting at group size 2 and wins at 4+, as measured) *)
}

val paper_gpu : profile
(** The identity profile: Tables 2–3 verbatim.  Default. *)

val host : profile
(** Calibrated to this repository's committed host benchmarks. *)

val profiles : profile list
val find_profile : string -> profile option

val current_profile : unit -> profile
val set_profile : profile -> unit

val with_profile : profile -> (unit -> 'a) -> 'a
(** Run with a temporarily-installed profile, restoring the previous one
    (also on exceptions). *)

type op =
  | Addcc
  | Addcp
  | Subcc
  | Multcc
  | Multcp
  | Rotate
  | Rescale
  | Modswitch
  | Encode

val op_to_string : op -> string

(** [latency_us op ~level] is the modeled latency, in microseconds, of [op]
    applied to operands at ciphertext level [level] (>= 1). *)
val latency_us : op -> level:int -> float

(** [bootstrap_latency_us ~target] is the modeled latency of a bootstrap whose
    result level is [target] (paper Table 3).  Latency decreases as the target
    level gets lower, which is the property exploited by HALO's target-level
    tuning (Solution B-3). *)
val bootstrap_latency_us : target:int -> float

val rescue_latency_us : target:int -> float
(** Total virtual-time cost of one rescue bootstrap at [target]: the
    bootstrap plus the monitor's bookkeeping (estimate snapshot,
    rescue-frame journaling and interpreter re-entry), modeled as one
    [modswitch] sweep at the rescue target. *)

(** {1 Key-switching decomposition and the rotation-key cache}

    A key switch is modeled as three sub-steps whose costs sum to the 0.9x
    [multcc] estimate of [Rotate] (scaled and re-apportioned by the active
    profile): mod-up digit decomposition (paper: 50%), the per-digit MAC
    against the switch key (25%) and the extended-basis mod-down (15%).
    Splitting them out lets the compiler and benchmarks
    price the two reuse optimizations: a digit cache skips the decomposition
    when the same ciphertext is switched again, and lazy switching pays the
    decomposition and mod-down once per rotate-and-sum group instead of once
    per member. *)

val decompose_us : level:int -> float
(** Mod-up digit decomposition of one ciphertext at [level]. *)

val keyswitch_mac_us : level:int -> float
(** One per-digit MAC accumulation against a switch key at [level]. *)

val moddown_us : level:int -> float
(** One extended-basis mod-down at [level]. *)

val keygen_us : level:int -> float
(** Generating (or deterministically regenerating) one rotation key — the
    price of a key-cache miss; a hit costs nothing. *)

val key_switch_us : digits_cached:bool -> level:int -> float
(** A full key switch; with [digits_cached] the decomposition is skipped
    (cross-op digit reuse). *)

val rot_sum_us :
  lazy_switch:bool -> weighted:bool -> members:int -> level:int -> float
(** A [members]-way rotate-and-sum reduction at [level].  [lazy_switch]
    prices the fused form (one shared decomposition, per-member MACs — each
    carrying the profile's extended-basis lift overhead — one mod-down,
    and, when [weighted], one deferred rescale); otherwise the
    hoisted-eager form (the decomposition is still shared, but every member
    pays its own MAC and mod-down).  Which form wins depends on the
    profile: under [paper_gpu] lazy always does, under [host] the
    calibrated lift overhead makes hoisted-eager cheaper for small
    groups. *)

val switch_key_bytes : n:int -> level:int -> int
(** Modeled byte size of one gadget-decomposed rotation key over [n]
    coefficients at [level]: [4 * level * (level+1) * n * 8].  Used to pick
    sensible [--key-budget] values. *)

(** Anchor points straight from the paper, exposed so that the benchmark
    harness can print Table 2 / Table 3 verbatim and tests can pin the model
    to the published numbers. *)

val table2_levels : int list
(** Operand levels of paper Table 2: [1; 5; 10; 15]. *)

val table3_targets : int list
(** Target levels of paper Table 3: [4; 7; 10; 13; 16]. *)

val table2_anchor : op -> level:int -> float option
(** The published Table 2 number for [op] at [level], if [op] is one of
    [Multcc], [Rescale], [Modswitch] and [level] is an anchor level. *)

val table3_anchor : target:int -> float option
(** The published Table 3 bootstrap number at [target] if it is an anchor. *)
