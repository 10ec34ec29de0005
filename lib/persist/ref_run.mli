(** The reference-backend execution driver: the library's one path from a
    compiled program to an execution, used by [halo_cli run] (every flag
    combination), [halo_cli resume], every served batch
    ({!Halo_serve.Server}), the fuzz oracle's fault re-execution
    ({!Halo_verify.Oracle}), both benchmark soaks and the tests.  It holds
    the only fault-injector/resilient-runtime stack over
    {!Halo_ckks.Ref_backend}.

    {!exec} runs a {!Codec.manifest} under the resilient runtime,
    optionally journaled, optionally fault-injected, optionally against a
    deadline clock; {!verdict} checks the decrypted outputs and {!guard}
    also replans on a breach.  A checkpoint directory
    holds a [manifest.halo] and a [journal/] of entries, all written
    atomically and fsynced ({!Store}), so it is valid after a kill at any
    instant. *)

module Faulty : module type of Halo_runtime.Faults.Make (Halo_ckks.Ref_backend)
(** The reference backend behind the fault injector (invisible when it
    injects nothing). *)

module Rec : module type of Recovery.Make (Faulty)

exception Simulated_crash of { writes : int }
(** Raised (when [kill_after] is set) right after the [writes]-th durable
    checkpoint append — from the process's point of view an abrupt abort,
    from the journal's point of view indistinguishable from a SIGKILL,
    since every preceding append is already fsynced. *)

val default_backend :
  ?seed:int -> slots:int -> max_level:int -> unit -> Codec.backend_cfg
(** [Halo_ckks.Ref_backend.create]'s defaults (seed [0xB00], 51 scale
    bits, calibrated noise knobs) at the given geometry. *)

val manifest :
  ?backend_seed:int ->
  ?every_n:int ->
  ?retain:int ->
  ?guard_every:int ->
  ?guard_margin:float ->
  ?rescue:bool ->
  ?rescue_margin:float ->
  ?max_rescues:int ->
  strategy:Halo.Strategy.t ->
  bindings:(string * int) list ->
  inputs:(string * float array) list ->
  Halo.Ir.program ->
  Codec.manifest
(** The compiled program on {!default_backend} at its own geometry.
    Defaults: checkpoint every iteration, retain 4, no in-loop guard,
    {!Halo_runtime.Guard.margin}[ ()], monitor off with the
    {!Halo_runtime.Noise_monitor} defaults.  Raises [Invalid_argument] for
    any value {!Codec.check_manifest} refuses, so every manifest it builds
    can be saved and loaded back. *)

val journal_dir : string -> string
(** [<dir>/journal] *)

val start : dir:string -> Codec.manifest -> unit
(** Create the directory structure and durably write the manifest.  Must be
    called once before the first journaled {!exec} on a fresh directory. *)

val load : dir:string -> Codec.manifest
(** Load and validate the manifest of an existing checkpoint directory. *)

val exec :
  ?faults:Halo_runtime.Faults.config ->
  ?policy:Halo_runtime.Resilient.policy ->
  ?stats:Halo_runtime.Stats.t ->
  ?clock:Halo_runtime.Clock.t ->
  ?kill_after:int ->
  ?dir:string ->
  ?resume:bool ->
  Codec.manifest ->
  Rec.R.outcome * (string * string) list
(** Run the manifest's program under the resilient runtime, with the
    in-loop guard when [manifest.guard_every > 0] and the noise monitor
    when [manifest.rescue].  [stats] (fresh by default) receives every
    counter, one [injected_faults] per fault of [faults] included.
    [clock] is charged per instruction, and past its deadline the run
    aborts with {!Halo_error.Deadline_exceeded}.

    With [dir] the journal sink is attached and each fired rescue is
    journaled to [<dir>/journal/rescue-<seq>.ckpt] (a name the journal
    scanner ignores) under its sequence number, so kill/resume
    leaves byte-identical rescue records.  [resume:true] scans the journal
    first: each top-level loop fast-forwards to its newest intact entry,
    and damaged entries come back as [(filename, reason)] warnings, never
    an exception.  [kill_after] raises {!Simulated_crash} after that many
    checkpoint appends (restored writes count).  Without [dir] nothing
    touches the disk.

    Raises [Invalid_argument] for [faults] with [dir] (the journal does
    not checkpoint the injector's RNG) and for [kill_after] or
    [resume:true] without [dir]. *)

val verdict :
  Codec.manifest -> Rec.R.outcome -> Halo_runtime.Guard.verdict option
(** The decrypt-time guard of an {!exec} outcome: its outputs checked
    against {!Halo_runtime.Interp.reference} at [manifest.guard_margin];
    [None] for a degraded outcome. *)

type guarded = {
  outcome : Rec.R.outcome;  (** the replanned run's, if it replanned *)
  verdict : Halo_runtime.Guard.verdict option;  (** [None] when degraded *)
  replan : (Halo_runtime.Guard.verdict * Halo.Strategy.t) option;
      (** the breach that triggered a replan, and its strategy *)
}

val guard :
  recompile:(Halo.Strategy.t -> Halo.Ir.program) ->
  Codec.manifest ->
  Rec.R.outcome ->
  guarded
(** {!verdict}; on a [Breach] with [manifest.rescue] it records one
    [guard_trips], and if [manifest.strategy] has a
    {!Halo.Strategy.safer} rung, [recompile] builds the program under it,
    one [replans] is recorded, and {!exec} re-runs it fault-free, in memory
    and monitored, counting into the outcome's statistics.  A degraded
    outcome passes through. *)
