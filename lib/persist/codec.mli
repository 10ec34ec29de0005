(** Versioned, checksummed frames and payload codecs for everything a HALO
    run is made of.

    {2 Frame layout}

    Every artifact on disk is one frame:

    {v
    offset  size  field
    0       4     magic "HALO"
    4       1     format version (currently 5)
    5       1     kind tag (which payload codec)
    6       8     fingerprint (LE): Params.fingerprint for lattice
                  artifacts, the manifest fingerprint for journal entries,
                  0 when the payload is self-describing
    14      8     payload length (LE)
    22      n     payload
    22+n    4     CRC-32 of bytes [0, 22+n)
    v}

    {!of_frame} validates magic, version, kind, length, CRC and fingerprint
    — in that order, never reading a payload field first — and raises
    {!Halo_error.Persist_error} with the file path, byte offset and
    expected-vs-got values on any mismatch.  A frame written under different
    parameters, or by a future format version, is rejected loudly; it is
    never decoded wrongly.

    Decoders additionally validate payload structure against the parameter
    set (limb lengths, residue ranges, level bounds), so even a frame whose
    checksum collides cannot produce an out-of-range polynomial. *)

module Params = Halo_ckks.Params
module Rns_poly = Halo_ckks.Rns_poly
module Eval = Halo_ckks.Eval
module Keys = Halo_ckks.Keys
module Ref_backend = Halo_ckks.Ref_backend

type kind =
  | Rns_poly_frame
  | Ref_ct_frame
  | Lattice_ct_frame
  | Keys_frame
  | Program_frame
  | Manifest_frame
  | Entry_frame
  | Serve_manifest_frame
      (** serving-layer configuration + program registry ([Halo_serve]) *)
  | Serve_request_frame  (** one accepted serving request ([Halo_serve]) *)
  | Serve_entry_frame  (** one completed serving batch ([Halo_serve]) *)
  | Serve_plan_frame
      (** one admission-TTL planning record: the requests evaluated for
          expiry before a wave executed ([Halo_serve]) *)
  | Serve_quarantine_frame
      (** quarantine snapshot: tenants banned by the supervisor, with the
          culprit request ids ([Halo_serve]) *)
  | Serve_drain_frame
      (** graceful-drain handoff manifest written after the last in-flight
          batch was journaled ([Halo_serve]) *)
  | Serve_chaos_frame
      (** chaos-soak driver state: how many submission rounds a trial has
          durably injected ([halo_cli chaos]) *)
  | Rescue_frame
      (** one rescue-bootstrap decision journaled by the runtime noise
          monitor ([rescue-<seq>.ckpt]) *)
  | Tune_manifest_frame
      (** one autotuned strategy plan emitted by [halo_cli tune], stamped
          with the source program + bindings fingerprint ([Halo_tune.Plan]) *)

val format_version : int

val frame : kind:kind -> fingerprint:int64 -> (Buffer.t -> unit) -> string
(** Serialize a payload writer into a complete frame. *)

(** {2 Artifacts}

    Each durable record kind is described once, as an {!artifact}: its kind
    tag, its payload encoder and decoder, and where its stamp comes from.
    {!Store.save} and {!Store.load} frame, write, read, validate and decode
    every kind through these values. *)

type 'a stamp =
  | Fixed of int64
      (** known before the value: {!Params.fingerprint} for parameter-bound
          kinds, 0 for self-describing ones; written, and required on load *)
  | Of_value of ('a -> int64)
      (** computed from the value on save; any stamp loads unless the
          caller pins one *)
  | Given
      (** the caller passes [~fingerprint] on save and on load (journal and
          serve records carry their manifest's fingerprint) *)

type 'a artifact = {
  kind : kind;
  stamp : 'a stamp;
  encode : Buffer.t -> 'a -> unit;
  decode : Wire.reader -> 'a;
      (** validates as it reads; the reader's [stamp] is the frame's *)
}

val to_frame : ?fingerprint:int64 -> 'a artifact -> 'a -> string
(** The complete frame of one value.  [fingerprint] is required for a
    {!Given} stamp and refused ([Invalid_argument]) for the others. *)

val of_frame : ?path:string -> ?fingerprint:int64 -> 'a artifact -> string -> 'a
(** Validate a frame — magic, version, kind, length, CRC and stamp, in that
    order, never reading a payload field first — then decode its payload
    and require every byte consumed.  [fingerprint] pins the stamp of an
    {!Of_value} kind, is required for a {!Given} one and refused for a
    {!Fixed} one. *)

val payload_fingerprint : (Buffer.t -> 'a -> unit) -> 'a -> int64
(** CRC-32 of the encoded value in the low 32 bits, its length (mod 2^24)
    above: the stamp a manifest puts on its frame and on every record
    written under it. *)

(** {2 Parameter-bound and self-describing kinds} *)

val rns : Params.t -> Rns_poly.t artifact
(** Domain-tag aware: an [Eval]-domain polynomial round-trips NTT-resident,
    with no forced inverse transform.  Validates level bounds, limb lengths
    and residue ranges against the parameter set. *)

val ref_ct : slots:int -> max_level:int -> Ref_backend.ct artifact
(** Stamped 0.  Ciphertext frames carry the runtime noise estimate since
    format version 5; version-3/4 frames decode with the estimate at zero. *)

val lattice_ct : Params.t -> Eval.ct artifact
val keys : Params.t -> Keys.t artifact

val program : Halo.Ir.program artifact
(** Stamped 0.  Round-trips every field, vector constants bit for bit;
    refuses a loop-count divisor below 1. *)

(** {2 Shared payload pieces} *)

val encode_rng : Buffer.t -> Random.State.t -> unit
val decode_rng : Wire.reader -> Random.State.t
(** The RNG state is an opaque [Marshal] blob inside the checksummed frame;
    it is only unmarshalled after the CRC has validated, and replays
    bit-identically on the same OCaml version. *)

val encode_stats : Buffer.t -> Halo_runtime.Stats.t -> unit
val decode_stats : Wire.reader -> Halo_runtime.Stats.t

(** Reference-backend construction knobs, stored so a resumed run (or a
    resumed server) rebuilds the exact same backend. *)
type backend_cfg = {
  slots : int;
  max_level : int;
  scale_bits : int;
  seed : int;
  enc_noise : float;
  mult_noise : float;
  boot_noise : float;
  rescale_noise : float;
}

val encode_backend_cfg : Buffer.t -> backend_cfg -> unit
val decode_backend_cfg : Wire.reader -> backend_cfg

val check_backend_cfg : Wire.check -> backend_cfg -> unit
(** Refuses a slot count or a max level below 1. *)

val encode_rescue_tail : Buffer.t -> bool * float * int -> unit

val decode_rescue_tail : Wire.reader -> bool * float * int
(** Rescue monitor on/off, its headroom margin and its budget, which close
    both manifests since format version 5.  Older payloads decode with the
    monitor off at the default margin and budget. *)

val check_rescue_tail : Wire.check -> bool * float * int -> unit
(** Refuses a rescue margin that is not finite and at least 1, and a
    negative rescue budget. *)

val check_guard_margin : Wire.check -> float -> unit
(** Refuses a guard margin that is not positive and finite. *)

(** {2 Run manifest} *)

(** Everything [halo_cli resume] needs: the compiled program, its dynamic
    bindings, the concrete input vectors, the backend configuration and the
    journaling cadence. *)
type manifest = {
  prog : Halo.Ir.program;  (** compiled (post-strategy) program *)
  strategy : string;
      (** the strategy [prog] was compiled under; {!Ref_run.guard} replans
          one rung below it *)
  bindings : (string * int) list;
  inputs : (string * float array) list;
  backend : backend_cfg;
  every_n : int;  (** checkpoint cadence, in loop iterations *)
  retain : int;  (** journal entries retained per loop *)
  guard_every : int;
      (** in-loop guard cadence; [0] disables the guard.  Stored so a
          resumed run applies the same cadence and reproduces the same
          [guard_trips] counter. *)
  guard_margin : float;
      (** decrypt-time guard margin the run was started with, so a resumed
          run checks against the same calibration *)
  rescue : bool;  (** runtime noise monitor enabled *)
  rescue_margin : float;  (** headroom ratio below which a rescue fires *)
  max_rescues : int;  (** rescue budget for the run *)
}

val check_manifest : Wire.check -> manifest -> unit
(** Every field check of a run manifest: the backend, the guard margin,
    the rescue knobs, a cadence and a retention of at least 1 and a
    non-negative guard cadence.  The decoder and {!Ref_run.manifest} both
    run it. *)

val manifest : manifest artifact
(** Stamped with {!manifest_fingerprint}; decoding runs
    {!check_manifest}. *)

val manifest_fingerprint : manifest -> int64
(** Stamp carried by every journal entry, binding entries to the manifest
    they were written under. *)

(** {2 Checkpoint journal entries} *)

type 'ct carried = Plain of float array | Cipher of 'ct

type 'ct entry = {
  seq : int;  (** monotone append sequence, continues across resumes *)
  loop_var : int;  (** SSA result variable of the [For] being checkpointed *)
  iter : int;  (** 0-based index of the completed iteration *)
  carried : 'ct carried list;  (** loop-carried values after [iter] *)
  rng : Random.State.t;  (** backend RNG right after [iter] *)
  stats : Halo_runtime.Stats.t;  (** counters right after [iter] *)
}

val entry : 'ct artifact -> 'ct entry artifact
(** Carried ciphertexts are encoded with the given ciphertext artifact's
    payload codec.  {!Given} stamp: the manifest fingerprint. *)

(** {2 Rescue records}

    One frame per rescue bootstrap fired by the runtime noise monitor,
    written as [rescue-<seq>.ckpt] next to the checkpoint journal (the
    journal scanner ignores them: they are audit artifacts, keyed and
    rewritten idempotently by sequence number, so an interrupted-and-resumed
    run produces byte-identical rescue files to an uninterrupted one).
    {!Given} stamp: the manifest fingerprint. *)

val rescue : Halo_runtime.Noise_monitor.rescue_event artifact
