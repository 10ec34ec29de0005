(** Typed runtime errors shared by the backends, the interpreter and the
    fault-tolerant execution layer.

    Every failure carries a {!site}: the operation being executed, the SSA
    variable receiving its result (when known), the operand level (when
    known) and the backend it happened on.  This replaces the bare
    [invalid_arg] / string payloads the runtime used to raise, so a fuzz or
    soak failure is attributable without re-running under a debugger.

    The exceptions split into two families:

    - {b Permanent} errors — {!Backend_error}, {!Interp_error} — indicate a
      malformed program or a genuine bug; the retry machinery never retries
      them.
    - {b Transient} faults — {!Transient}, {!Bootstrap_failure} — model
      recoverable backend glitches (injected by [Halo_runtime.Faults] or, in
      a production deployment, raised by an accelerator driver); the
      [Halo_runtime.Resilient] wrapper retries them with bounded backoff and
      converts budget exhaustion into {!Retry_exhausted}. *)

type site = {
  op : string;  (** operation name, e.g. ["multcc"] or ["rescale"] *)
  var : int option;  (** SSA variable receiving the result, when known *)
  level : int option;  (** operand ciphertext level, when known *)
  backend : string option;  (** backend name ({!val:Halo_runtime.Backend.S.name}) *)
}

val site : ?var:int -> ?level:int -> ?backend:string -> string -> site
val site_to_string : site -> string

exception Backend_error of { site : site; reason : string }
(** A backend rejected an operation (level/scale discipline violation,
    out-of-range argument).  Permanent. *)

exception Interp_error of { site : site option; reason : string }
(** The interpreter rejected the program (missing input/binding, malformed
    constant, composite op reaching execution).  Permanent.  [site] is
    [None] for failures outside any instruction (program setup). *)

exception Transient of { site : site; index : int; attempt : int }
(** A transient operation failure.  [index] is the global backend-op index
    at which it fired; [attempt] counts faults injected at this op name so
    far (1-based), so a log line identifies both when and how often a site
    has misbehaved.  Retryable. *)

exception Bootstrap_failure of { site : site; index : int; attempt : int }
(** A failed bootstrap — kept distinct from {!Transient} because bootstrap
    is orders of magnitude more expensive and deployments may want a
    different retry policy for it.  Retryable. *)

exception Retry_exhausted of {
  site : site;
  attempts : int;  (** attempts spent at the failing site *)
  iteration : int option;
      (** enclosing loop iteration (0-based) when the site was inside a
          [For] body *)
}
(** Raised by the resilient runtime when a site keeps faulting past its
    retry budget; caught at the top of [Resilient.run] and converted into a
    structured degraded report. *)

exception Deadline_exceeded of {
  site : site;  (** the instruction boundary the abort was observed at *)
  now_us : int;  (** virtual-clock reading when the budget was found blown *)
  deadline_us : int;
}
(** Raised by the resilient runtime at the first instruction boundary after
    an armed {!Halo_runtime.Clock} passes its deadline.  Deadlines are
    virtual (charged from the cost model), so the abort point is a pure
    function of the program and the seed.  Permanent (never retried): the
    same program under the same budget would blow it again. *)

exception Persist_error of {
  path : string option;  (** file the failure was detected in, when known *)
  offset : int option;  (** byte offset of the failing field, when known *)
  expected : string option;  (** what the decoder required, e.g. ["crc 0x1a2b"] *)
  got : string option;  (** what the bytes actually said *)
  reason : string;
}
(** A durable artifact failed to decode: truncation, checksum mismatch,
    unknown format version, parameter-fingerprint mismatch, or a malformed
    field.  Every decoder in [Halo_persist] raises this — never [Failure] and
    never a silent garbage decode — so callers can distinguish "the store is
    damaged" from a programming error.  Permanent (never retried). *)

val persist_error :
  ?path:string ->
  ?offset:int ->
  ?expected:string ->
  ?got:string ->
  ('a, unit, string, 'b) format4 ->
  'a
(** [persist_error fmt ...] raises {!Persist_error} with the formatted
    reason. *)

val with_detail : ?expected:string -> ?got:string -> string -> string
(** [reason (expected e, got g)], either part omitted when absent: how
    {!Persist_error} and a refused constructor argument name a bad field. *)

val is_transient : exn -> bool
(** [true] exactly for {!Transient} and {!Bootstrap_failure}. *)

val to_string : exn -> string
(** Human-readable rendering of the exceptions above (also registered with
    [Printexc.register_printer]); [Printexc.to_string] otherwise. *)
