(** Multi-tenant encrypted serving: bounded admission, cross-request slot
    batching, parallel batch execution, durable job state, and a
    supervision layer (deadlines, admission TTLs, circuit breakers,
    quarantine, degraded-mode fallback, graceful drain).

    {2 Life of a request}

    A client submits [(tenant, program, payload, tol)].  Admission rejects
    it synchronously when the server is draining, the queue is full, the
    program is unknown, an input is missing or oversized, the program's
    static noise bound (scaled by the configured margin) exceeds the
    request's error tolerance, the tenant is quarantined, or a circuit
    breaker for the tenant or the program is open.  Accepted requests get
    a monotone id, an admission stamp on the server's virtual clock, are
    durably persisted (when the server has a directory — the frame is
    fsynced before {!submit} returns), and wait in the admission queue.
    {!submit} is domain-safe: concurrent submitters serialize on an
    internal lock and ids stay dense.

    {!run_until_drained} plans the queue into batches: consecutive requests
    for the same {e slotwise} program (see {!Slot_batch.slotwise}) share one
    ciphertext, up to [batch_window] lanes of [lane] slots; everything else
    is served one-request-per-ciphertext.  When an admission TTL is
    configured, each request's age is checked once, at its first planning,
    and the verdicts are journaled before the wave executes.  Batches
    execute on the domain pool ({!Halo_ckks.Domain_pool}), each against its
    own deterministically seeded backend under the resilient runtime (and,
    when configured, the seeded fault injector) — so results are
    bit-identical for any pool size and any crash/resume history.  A
    configured per-batch deadline runs on a private virtual clock charged
    by the cost model; blowing it aborts the batch at the next instruction
    boundary.  Completed batches are journaled (one atomic frame per
    batch, stamped with its delivery sequence), then each member's output
    lane is sealed under its tenant's key ({!Tenant}) and delivered.

    {2 Supervision}

    Delivered outcomes drive the supervisor ({!Supervisor}): the server
    clock is charged with each batch's modeled latency, and every member
    outcome feeds the tenant and program circuit breakers.  When fallback
    is enabled, members of a failed multi-member batch are not failed but
    re-executed solo (journaled under [solo-<id>.ckpt]) — healthy
    lane-mates succeed bit-identically to a run that never shared a
    ciphertext with the culprit, and the culprit fails alone.  Repeated
    solo failures quarantine the tenant durably ([quarantine.halo]).

    {2 Durability protocol}

    The plan is a pure function of the accepted-request sequence, and each
    batch's execution is a pure function of the manifest and its member
    requests (its backend seed derives from the batch key — the first
    member's request id — not from execution order).  So after a kill at
    any instant, {!open_resume} rebuilds the server from the manifest, the
    request log and the journal (folding intact entries in delivery-
    sequence order, which replays the clock and every breaker transition
    exactly), re-executes exactly the batches without an intact journal
    entry, and every accepted request completes with the same bytes it
    would have produced uninterrupted.  Damaged journal entries are
    reported and re-executed, never trusted.  A graceful {!drain} writes a
    handoff manifest that a later {!open_resume} validates the journal
    against. *)

module Codec = Serve_codec

type t

type reject =
  | Queue_full of { depth : int }
  | Unknown_program of string
  | Missing_input of string
  | Over_slots of { input : string; len : int; slots : int }
  | Noise_budget of { bound : float; scaled : float; tol : float }
      (** static bound times margin exceeds the request's tolerance *)
  | Unbounded_noise
      (** the program's noise analysis found no finite bound to admit
          against *)
  | Quarantined of { tenant : int; culprit : int }
      (** the tenant is durably quarantined; [culprit] is the request that
          tripped it *)
  | Breaker_open of {
      scope : Supervisor.scope;
      until_us : int;  (** virtual time the cooldown ends *)
      now_us : int;
    }
  | Draining  (** admission is closed for a graceful drain *)

val reject_to_string : reject -> string

(** Structured per-request failure: retry-budget exhaustion, a blown
    per-batch deadline ([f_op] is the aborting instruction), a noise-guard
    breach ([f_op = "guard"]), or an expired admission TTL
    ([f_op = "admission-ttl"], [f_attempts = 0]). *)
type failure = {
  f_req : int;
  f_op : string;
  f_reason : string;
  f_attempts : int;
  f_iteration : int option;
}

type outcome =
  | Served of {
      batch_key : int;
      lanes : int;  (** batch size it was packed with (1 = solo) *)
      sealed : Tenant.sealed list;  (** one per program output *)
    }
  | Failed of failure

(** Every field except the [rejected_*] ones derives from the request log
    and the journal, so it survives {!open_resume}.  Admission rejections
    are never journaled: after a resume the [rejected_*] counters count
    only the resuming process's rejections. *)
type counters = {
  accepted : int;
  rejected_queue : int;  (** process-local *)
  rejected_admission : int;  (** process-local *)
  rejected_supervised : int;
      (** draining, quarantine and breaker rejections (process-local) *)
  served : int;
  failed : int;
  batches : int;  (** includes fallback solo re-executions *)
  batched_requests : int;  (** members of batches with >= 2 lanes *)
  solo_requests : int;  (** solo batches, including fallback re-executions *)
  expired : int;  (** requests failed by the admission TTL *)
  fallback_requests : int;  (** members queued for solo re-execution *)
  breaker_opens : int;
  breaker_closes : int;
  breaker_reopens : int;
  quarantined_tenants : int;
}

exception Killed of { writes : int }
(** Raised (when [kill_after] is set) right after the [writes]-th durable
    journal append — the simulated-SIGKILL hook of the serving soak, same
    protocol as {!Halo_persist.Ref_run.Simulated_crash}. *)

val knobs : Codec.config -> Halo.Strategy.knobs
(** The knobs every registered program compiles under:
    {!Halo.Strategy.default_knobs} with the config's [rotate_fuse].  A
    serve manifest persists nothing else of the compile configuration. *)

val create : ?dir:string -> Codec.config -> programs:Codec.prog_def list -> t
(** Compile the registry and (when [dir] is given) durably write the serve
    manifest.  Raises [Invalid_argument] on an empty or duplicate-name
    registry, a program whose slot count differs from the backend's, a
    dynamic iteration count, or malformed supervision knobs.  Raises
    {!Halo_error.Persist_error} when [dir] already holds a manifest, an
    accepted request or a journal entry: the manifest fingerprint does not
    cover the traffic, so only {!open_resume} may adopt a previous job. *)

val open_resume : dir:string -> t
(** Rebuild a server from a serve directory: load and validate the
    manifest, recompile the registry, reload every accepted request, apply
    the TTL planning records, fold intact journal entries in delivery
    order (reconstructing clock, breakers and quarantine exactly), and
    queue the rest — including unfinished fallback re-executions — for
    re-execution.  Corrupt journal entries are collected in {!damaged};
    corrupt manifest, request or planning files raise
    {!Halo_error.Persist_error} loudly, as does a journal that has fewer
    delivery sequences than a drain handoff recorded.  Admission is open
    after resume (a drain does not survive its process). *)

val damaged : t -> (string * string) list
(** Journal files discarded by the last {!open_resume} scan. *)

val config : t -> Codec.config
val solo_program : t -> string -> Halo.Ir.program
(** The compiled one-request-per-ciphertext form of a registered program
    (raises [Not_found] on an unknown name). *)

val noise_report : t -> string -> Halo.Noise_budget.report
val batchable : t -> string -> bool

val submit :
  ?tol:float ->
  t ->
  tenant:Tenant.t ->
  program:string ->
  payload:(string * float array) list ->
  (int, reject) result
(** Admission.  [tol] defaults to [infinity] (accept any bounded noise).
    On [Ok id], the request is accepted and (for durable servers) already
    fsynced to the request log.  Domain-safe. *)

val pending : t -> int
(** Requests admitted but not yet planned. *)

val run_until_drained :
  ?kill_after:int -> ?on_batch:(key:int -> reqs:int list -> unit) -> t -> unit
(** Plan the queue, execute every batch (waves of pool-size batches run in
    parallel; journal appends and delivery stay in batch-key order), run
    fallback solo re-executions until none remain, and deliver every
    outcome.  [on_batch] fires after each batch is journaled and
    delivered.  [kill_after] raises {!Killed} right after that many
    journal appends. *)

val drain :
  ?kill_after:int ->
  ?on_batch:(key:int -> reqs:int list -> unit) ->
  t ->
  Codec.drain
(** Graceful shutdown: close admission ({!submit} answers [Draining]),
    finish and journal everything in flight, then durably write the
    handoff manifest ([drain.halo]) and return it. *)

val handoff : t -> Codec.drain option
(** The handoff written by {!drain}, or found (and validated) by
    {!open_resume}. *)

val clock_us : t -> int
(** The server virtual clock, in microseconds. *)

val tick : t -> us:int -> unit
(** Inject idle virtual time (ages the admission queue for TTL tests and
    the chaos harness).  Not durable — only tick between drained cycles. *)

val quarantine : t -> (int * int) list
(** [(tenant, culprit request id)], sorted by tenant. *)

val latencies : t -> (int * int) list
(** [(request id, virtual completion latency in us)] for every delivered
    request, sorted by id. *)

val max_latency_us : t -> int

val result : t -> int -> outcome option
val results : t -> (int * outcome) list
(** Every delivered outcome, in request-id order. *)

val stats : t -> Halo_runtime.Stats.t
(** Aggregate execution statistics: the per-batch counters folded in
    batch-key order — deterministic for any pool size and identical after
    any kill/resume history. *)

val counters : t -> counters
val report : t -> string
(** Human-readable one-stop summary (counters + aggregate statistics);
    the serving soak ({!Soak}) compares baseline and resumed reports for
    equality.  It prints the process-local [rejected_*] counters, so after
    a resume it can differ from the baseline's in those alone.
    The supervision line appears only when supervision did something, so
    unsupervised reports are unchanged from the pre-supervision layer. *)

val key_budget_report : t -> budget:int -> string
(** {!Key_budget} accounting for the server's program registry against a
    byte [budget] (0 = unbounded): what a lattice deployment of these
    programs would keep resident under the LRU rotation-key cache. *)
