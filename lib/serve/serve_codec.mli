(** Durable wire formats for the serving layer, framed and checksummed by
    {!Halo_persist.Codec}.

    A serve directory contains these artifact kinds, all written through
    {!Halo_persist.Store.save} (tmp + fsync + rename, crash-atomic):

    - [manifest.halo] — a {!Serve_manifest_frame}: the server configuration
      and the program registry (traced programs + strategy names; compiled
      forms are deterministic and rebuilt on load);
    - [requests/req-<id>.halo] — one {!Serve_request_frame} per {e accepted}
      request, written at admission, stamped with the manifest fingerprint;
    - [journal/batch-<key>.ckpt] and [journal/solo-<key>.ckpt] — one
      {!Serve_entry_frame} per completed batch (solo- for degraded-mode
      fallback re-executions): member request ids, sealed per-tenant
      outputs (or the structured failure report), and the batch's
      execution statistics;
    - [journal/plan-<seq>.ckpt] — one {!Serve_plan_frame} per admission-TTL
      evaluation wave (only when [s_ttl_us > 0]);
    - [quarantine.halo] — a {!Serve_quarantine_frame} mirror of the
      journal-derived quarantine set;
    - [drain.halo] — a {!Serve_drain_frame} graceful-shutdown handoff.

    Rejected requests are never persisted — admission is the durability
    boundary, which is exactly the "every {e accepted} request eventually
    completes" contract the kill/resume soak asserts. *)

module Codec = Halo_persist.Codec
module Stats = Halo_runtime.Stats

(** One registered program: served under [pd_name], compiled with
    [pd_strategy] (deterministically, on load). *)
type prog_def = {
  pd_name : string;
  pd_strategy : Halo.Strategy.t;
  pd_traced : Halo.Ir.program;  (** traced (pre-compilation) form *)
}

(** Seeded fault-injection knobs for the serving backend (probabilities per
    {!Halo_runtime.Faults.config}; each batch derives its own fault seed
    from [f_seed] and the batch key).  [f_poison] lists tenant ids whose
    batches additionally receive a {e fixed} fault schedule dense enough to
    exhaust the retry budget deterministically — the poisoned-request
    isolation scenario the chaos soak exercises. *)
type fault_cfg = {
  f_seed : int;
  f_transient : float;
  f_bootstrap : float;
  f_spike : float;
  f_magnitude : float;
  f_poison : int list;
}

(** Supervision knobs.  Everything is off in {!default_sup}, in which case
    supervised serving is bit-identical to the unsupervised layer.  All
    durations are {e virtual} microseconds on the server's {!Halo_runtime.Clock}
    (charged from the cost model), so every deadline and breaker decision is
    reproducible from the seed. *)
type sup_cfg = {
  s_deadline_us : int;  (** per-batch execution budget; [0] disables *)
  s_ttl_us : int;  (** admission TTL, checked at first planning; [0] off *)
  s_fallback : bool;
      (** re-execute members of a failed multi-member batch solo *)
  s_tenant_window : int;  (** per-tenant breaker outcome window (>= 1) *)
  s_tenant_threshold : int;
      (** failures within the window that open the tenant breaker; [0]
          disables the tenant breaker *)
  s_program_window : int;  (** per-program breaker outcome window (>= 1) *)
  s_program_threshold : int;  (** as above, per program; [0] disables *)
  s_cooldown_us : int;
      (** virtual time an open breaker waits before admitting a probe *)
  s_quarantine_after : int;
      (** solo failures that quarantine a tenant durably; [0] disables *)
  s_guard : bool;
      (** compute the exact reference per batch and abort on a noise breach *)
  s_rescue : bool;
      (** run the {!Halo_runtime.Noise_monitor} inside every batch, and
          re-execute solo batches that still breach under a recompiled
          safer strategy (the replan phase) *)
  s_rescue_margin : float;
      (** headroom ratio below which the monitor fires a rescue *)
  s_max_rescues : int;  (** rescue budget per batch execution *)
}

val default_sup : sup_cfg
(** All supervision off: deadline 0, TTL 0, no fallback, breaker thresholds
    0 (windows 8, cooldown 50ms for when a threshold is raised), no
    quarantine, no guard, no rescue (margin 2, budget 4 for when it is
    enabled). *)

type config = {
  backend : Codec.backend_cfg;  (** per-batch reference-backend knobs *)
  queue_depth : int;  (** bounded admission queue length *)
  batch_window : int;
      (** max requests packed into one ciphertext (1 = solo serving) *)
  lane : int;  (** slot lane width per batched request (power of two) *)
  margin : float;  (** admission: refuse when [bound * margin > tol] *)
  rotate_fuse : bool;  (** compile with rotation fusion (default true) *)
  policy : Halo_runtime.Resilient.policy;  (** per-batch retry policy *)
  faults : fault_cfg option;  (** seeded fault injection, off when [None] *)
  sup : sup_cfg;  (** supervision; {!default_sup} = PR 6 behavior *)
}

type manifest = { config : config; progs : prog_def list }

type request = {
  req_id : int;  (** admission order; assigned by the server *)
  tenant_id : int;
  tenant_key : int;  (** tenant key seed (the simulation holds all keys) *)
  pname : string;
  tol : float;  (** largest acceptable worst-case output error *)
  admit_us : int;  (** server virtual clock at admission (TTL anchor) *)
  payload : (string * float array) list;  (** one vector per program input *)
}

(** Result of one executed batch.  [Ok] carries each member's sealed output
    lanes (request-major, then program-output-major); the other three are
    structured failure reports shared by every member of the batch:
    [Degraded] is retry-budget exhaustion, [Deadline] a blown virtual-time
    budget, [Breach] a noise-guard violation against the exact
    reference. *)
type batch_status =
  | Ok of float array list list
  | Degraded of {
      d_op : string;
      d_reason : string;
      d_attempts : int;
      d_iteration : int option;
    }
  | Deadline of { dl_op : string; dl_now_us : int; dl_deadline_us : int }
  | Breach of {
      br_output : int;
      br_slot : int;
      br_observed : float;
      br_bound : float;
    }

type entry = {
  e_key : int;  (** batch key: the first member's request id *)
  e_seq : int;
      (** delivery sequence: journal append order, which is also the order
          the supervisor observed outcomes in.  Crash recovery folds entries
          sorted by [e_seq] to reconstruct breaker and clock state exactly. *)
  e_reqs : int list;  (** member request ids, lane order *)
  e_status : batch_status;
  e_stats : Stats.t;  (** execution counters for this batch alone *)
}

(** One admission-TTL planning record, journaled {e before} the wave it
    covers executes.  Requests with ids at or below [pl_watermark] have had
    their TTL evaluated exactly once; a resumed server treats them as
    immune, so a crash between planning and execution cannot flip a verdict. *)
type plan = {
  pl_seq : int;  (** plan sequence, monotone across resumes *)
  pl_clock_us : int;  (** server virtual clock at planning time *)
  pl_watermark : int;  (** highest request id whose TTL has been evaluated *)
  pl_expired : int list;  (** ids expired (terminal) at this planning *)
}

(** Durable quarantine snapshot: tenants banned by the supervisor, each with
    the request id that pushed them over the threshold.  The journal fold is
    the authority; this snapshot is the cheap-to-read mirror. *)
type quarantine = { qr_tenants : (int * int) list }

(** Graceful-drain handoff manifest, written after the last in-flight batch
    was journaled.  [open_resume] validates the journal against it: a
    journal {e behind} the handoff means lost durability and is refused. *)
type drain = {
  dr_accepted : int;
  dr_served : int;
  dr_failed : int;
  dr_clock_us : int;  (** server virtual clock at drain completion *)
  dr_seq : int;  (** delivery sequences handed out (journaled entries) *)
  dr_quarantined : int list;  (** quarantined tenant ids at drain *)
}

val check_manifest : Halo_persist.Wire.check -> manifest -> unit
(** Every field check of a serve manifest, the one copy both the decoder
    and {!Server.create} run: the backend, the queue, batch window and lane
    geometry, a positive finite margin, a retry budget of at least 1,
    non-negative poisoned tenant ids, the supervision knobs (non-negative
    deadline, TTL and quarantine threshold, breaker windows of at least 1
    with thresholds inside them, a cooldown of at least 1us, the rescue
    knobs) and a non-empty registry of distinct program names. *)

val manifest_fingerprint : manifest -> int64
(** Stamp carried by every request and journal frame under this manifest. *)

(** {2 Artifacts}

    Saved and loaded with {!Halo_persist.Store.save} and
    {!Halo_persist.Store.load}.  The manifest is stamped with
    {!manifest_fingerprint}; every other kind takes that fingerprint from
    the caller. *)

val manifest : manifest Codec.artifact
val request : request Codec.artifact

val entry : entry Codec.artifact
(** [Store.save] returns the frame size, the batch's journal bytes. *)

val plan : plan Codec.artifact
val quarantine : quarantine Codec.artifact
val drain : drain Codec.artifact

val chaos : int Codec.artifact
(** Chaos-soak driver state: how many submission rounds have been durably
    injected into the serve directory (so a killed trial resumes submission
    exactly where it left off). *)
