(** Crash recovery driver: wires the checkpoint journal into
    {!Halo_runtime.Resilient}'s durable-checkpoint hooks.

    {2 Recovery model}

    A checkpointed run is deterministic end to end (seeded backend RNG, the
    simulated-backoff retry layer, no wall-clock dependence), so recovery
    does not need to snapshot the whole interpreter: it re-executes the
    cheap pre-loop prefix from scratch — bit-identical by determinism —
    and fast-forwards each top-level [For] to its newest intact journal
    entry, restoring the loop-carried values, the backend RNG and the
    statistics counters recorded with that entry.  Iterations after the
    last checkpoint (cadence > 1) re-execute from the restored RNG and are
    therefore also bit-identical.  The result: a run killed at any point
    and resumed produces outputs {e bit-identical} to an uninterrupted
    run's.

    {2 Statistics}

    Each journal entry embeds a statistics snapshot that already accounts
    for the entry's own write.  The frame length does not depend on the
    counter values or the iteration (every field is fixed-width for a
    given loop), so it is measured once per loop variable and each entry
    is encoded once, by the append.  Restoring a snapshot with
    [Stats.assign] therefore reproduces exactly the counters an
    uninterrupted run would show at that point. *)

module Make (B : Halo_runtime.Backend.S) : sig
  module R : module type of Halo_runtime.Resilient.Make (B)

  (** Ciphertext codec and RNG access for the backend, closed over its
      state. *)
  type ct_codec = {
    ct : B.ct Codec.artifact;
    rng_state : unit -> Random.State.t;
    set_rng_state : Random.State.t -> unit;
  }

  val checkpoint_hooks :
    codec:ct_codec ->
    journal:Journal.t ->
    every_n:int ->
    stats:Halo_runtime.Stats.t ->
    resume:B.ct Journal.scan option ->
    R.checkpoint
  (** The hooks to pass to [R.run ~checkpoint].

      The sink writes a journal entry after every [every_n]-th completed
      top-level iteration and counts it in
      [stats.checkpoint_writes]/[checkpoint_bytes].

      When [resume] is [Some scan], the entry hook fast-forwards each
      top-level loop to its newest intact entry (consumed once per loop
      variable): carried values reinstated, backend RNG restored through
      the codec, [stats] overwritten with the entry's snapshot.  Entries at
      or beyond the loop's iteration count are ignored (stale journal from
      different bindings would otherwise skip the loop wholesale — the
      fingerprint check normally rules this out, but defense in depth is
      cheap). *)
end
