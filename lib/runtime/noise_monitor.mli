(** Runtime noise supervision: watches the per-ciphertext noise estimates
    the backends thread through every op (see {!Backend.S.noise_estimate})
    and fires {e rescue bootstraps} when the estimated headroom against the
    decrypt-time guard threshold drops too low — before the work is wasted,
    instead of discovering the breach at decrypt.

    The monitor checks at two kinds of sites:

    - {e [For]-loop heads} ({!Make.check_ct}, wired in by {!Resilient}):
      each loop-carried ciphertext whose headroom
      [threshold / estimate] has fallen below [rescue_margin] is
      bootstrapped back to its current level, counted in [Stats.rescues]
      and (when the budget is exhausted or the estimate already sits at
      the bootstrap floor) declined into [Stats.rescue_aborts];
    - {e planned bootstrap sites} ({!Make.at_bootstrap}, wired in by the
      interpreter): pressure observed immediately before a planned
      bootstrap is counted as a declined rescue, since the program is
      about to reset the noise anyway.

    Every decision is a pure function of the ciphertext estimate and the
    checkpointed statistics, so kill/resume replays the identical rescue
    sequence bit for bit.  On a quiet run (no spikes, no drift) the
    estimate never exceeds the static bound, headroom never falls below
    the guard margin, and the monitor is byte-invisible. *)

type config = {
  threshold : float;
      (** the largest estimate tolerable at decrypt:
          {!Halo.Noise_budget.threshold} of the compiled program *)
  rescue_margin : float;
      (** fire when [threshold / estimate] drops below this *)
  max_rescues : int;  (** rescue budget for the whole run *)
}

val default_rescue_margin : float
(** [2.0]: rescue at half the tolerable estimate — late enough that a
    quiet run (whose headroom never drops below the guard margin, [10.0]
    by default) never pays for a bootstrap it does not need. *)

val default_max_rescues : int
(** [4] *)

val config :
  ?rescue_margin:float -> ?max_rescues:int -> margin:float ->
  Halo.Ir.program -> config
(** The monitor for a compiled program: [threshold] is
    {!Halo.Noise_budget.threshold} of its static analysis at the guard
    [margin], so a rescue defends exactly the headroom the decrypt-time
    guard checks.  Raises [Invalid_argument] on a non-positive threshold
    (e.g. a non-positive [margin]), a rescue margin below [1.0] or a
    negative budget. *)

type rescue_event = {
  r_seq : int;  (** 0-based rescue sequence number within the run *)
  r_target : int;  (** bootstrap target level (the ciphertext's level) *)
  r_before : float;  (** estimate before the rescue *)
  r_after : float;  (** estimate after (the bootstrap unit) *)
}

module Make (B : Backend.S) : sig
  type t

  val create :
    ?on_rescue:(rescue_event -> unit) -> cfg:config -> stats:Stats.t ->
    unit -> t
  (** [on_rescue] is invoked after each fired rescue (statistics already
      updated) — the hook the persistence layer uses to journal
      [rescue-<seq>.ckpt] frames. *)

  val check_ct : t -> B.state -> B.ct -> B.ct
  (** Loop-head check: returns the (possibly rescued) ciphertext. *)

  val at_bootstrap : t -> B.state -> B.ct -> target:int -> unit
  (** Planned-bootstrap-site check: counts pressure as a declined rescue. *)
end
