(** Supervision state for the serving layer: the server-wide virtual clock,
    per-tenant and per-program circuit breakers, the durable-quarantine set
    and the supervision counters.

    {2 Reconstruction contract}

    Everything the supervisor decides is driven by two inputs only: the
    virtual clock (charged with each delivered batch's modeled latency) and
    the per-member outcomes of delivered batches, observed in delivery
    order.  Both are journaled — entries carry their statistics and their
    delivery sequence — so {!Server.open_resume} reconstructs the exact
    live supervisor by folding intact entries sorted by [e_seq].  Admission
    decisions themselves (rejections, probe admissions) are process-local
    and deliberately {e not} part of the durable state: rejected requests
    were never accepted, so nothing about them needs to survive a crash.

    {2 Breaker state machine}

    A breaker is [Closed] (normal admission, sliding outcome window) or
    [Open] (admission refused until a virtual-time cooldown passes, then
    one {e probe} request is admitted; its outcome closes or re-opens the
    breaker).  The classic half-open state is the [Open]-past-cooldown
    phase: {!admit} lets exactly one probe through ([b_probing] is
    process-local), and {!observe} resolves it.  Transitions happen only in
    {!observe} — outcome-driven, never admission-driven — which is what
    makes the journal fold exact.  A threshold of [0] disables a breaker
    dimension entirely. *)

module Codec = Serve_codec
module Clock = Halo_runtime.Clock

type scope = Tenant_scope of int | Program_scope of string

val scope_to_string : scope -> string

type t

val create : Codec.sup_cfg -> t
(** Fresh supervisor at virtual time 0, all breakers closed, nothing
    quarantined. *)

val now_us : t -> int

val charge : t -> Halo_runtime.Stats.t -> unit
(** Advance the clock by a delivered batch's modeled latency (compute +
    simulated backoff), rounded once to integer microseconds. *)

val tick : t -> us:int -> unit
(** Inject idle virtual time (tests and the chaos harness use it to age the
    admission queue).  Not durable: a resumed clock is recomputed from the
    journal, so tick only between fully drained cycles. *)

type verdict =
  | Admit
  | Quarantined of { tenant : int; culprit : int }
  | Breaker_open of { scope : scope; until_us : int; now_us : int }

val admit : t -> tenant:int -> pname:string -> verdict
(** Admission gate: quarantine first, then the tenant breaker, then the
    program breaker.  Probe slots are only consumed when the request passes
    every gate. *)

val observe : t -> tenant:int -> pname:string -> success:bool -> unit
(** Record one member outcome of a delivered batch against both breaker
    dimensions.  Must be called in delivery order. *)

val record_solo_failure : t -> tenant:int -> req:int -> bool
(** Count one failed single-lane execution against the tenant; returns
    [true] exactly when this failure pushes the tenant over
    [s_quarantine_after] (the caller persists the quarantine snapshot).
    [req] becomes the recorded culprit. *)

val quarantined : t -> (int * int) list
(** [(tenant, culprit request id)], sorted by tenant. *)

val record_expired : t -> unit
val record_fallbacks : t -> count:int -> unit

val record_latency : t -> req:int -> admit_us:int -> unit
(** Stamp a request's completion latency: clock now minus its admission
    stamp, in virtual microseconds. *)

val latencies : t -> (int * int) list
val max_latency_us : t -> int

val opens : t -> int
val closes : t -> int
val reopens : t -> int
val expired : t -> int
val fallbacks : t -> int
