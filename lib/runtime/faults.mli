(** Deterministic, seed-driven fault injection over any {!Backend.S}.

    [Make (B)] is itself a {!Backend.S} whose state wraps a [B.state] with a
    fault configuration; the interpreter (and the resilient runtime) run
    against it unchanged.  Three fault kinds are modeled:

    - {b transient op failures} — {!Halo_error.Transient} raised {e before}
      the underlying op executes (ciphertexts are immutable values, so a
      faulted op leaves no partial state);
    - {b bootstrap failures} — {!Halo_error.Bootstrap_failure}, drawn with
      an extra per-bootstrap probability on top of the transient rate;
    - {b noise-spike corruption} — a silent perturbation of the op's result
      (applied generically via the underlying backend's [addcp]), which no
      retry can see: only the {!Guard} catches it at decrypt.

    Every wrapped compute op draws from a dedicated RNG seeded by
    {!config}'s [seed], so the same seed yields the same fault schedule on
    the same execution — and a retried op re-draws, modeling a glitch that
    clears.

    {b Fixed-schedule semantics}: [at] is an {e occurrence index} — the
    number of compute ops {e completed} before the op — not an attempt
    count.  A faulted op does not advance the index, so its retries keep
    the same index and a retry never shifts later schedule entries onto
    different ops.  Each schedule entry fires {e exactly once}; duplicate
    entries at the same index fault successive attempts of that op (e.g.
    two [{at = 5; kind = Transient_op}] entries fault op 5's first attempt
    and its first retry). *)

type kind = Transient_op | Bootstrap_abort | Noise_spike

type event = { at : int; kind : kind }
(** Force a fault of [kind] when the global op index reaches [at]. *)

type config = {
  seed : int;
  transient_prob : float;  (** per compute op *)
  bootstrap_prob : float;  (** additional, per bootstrap *)
  spike_prob : float;  (** per ct-producing compute op *)
  spike_magnitude : float;  (** slot-value magnitude of a spike *)
  schedule : event list;
  fault_io : bool;  (** also inject transients on encrypt/decrypt *)
}

val config :
  ?transient_prob:float ->
  ?bootstrap_prob:float ->
  ?spike_prob:float ->
  ?spike_magnitude:float ->
  ?schedule:event list ->
  ?fault_io:bool ->
  seed:int ->
  unit ->
  config
(** Probabilities default to [0.]; [spike_magnitude] to [1e-4]; [schedule]
    to []; [fault_io] to [false] (input encryption and output decryption
    run outside the retry protection, so they stay reliable by default). *)

module Make (B : Backend.S) : sig
  include Backend.S with type ct = B.ct

  val wrap : ?on_fault:(kind -> unit) -> config -> B.state -> state
  (** [on_fault] is invoked once per injected fault (e.g.
      [fun _ -> Stats.record_fault stats]). *)

  val ops_seen : state -> int
  (** Occurrence index: compute ops {e completed} so far (faulted attempts
      do not count). *)

  val injected : state -> int
  val injected_spikes : state -> int
end
