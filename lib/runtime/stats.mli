(** Execution statistics: dynamic operation counts and modeled latency.

    Latency is charged per executed operation from the cost model calibrated
    to the paper's Tables 2–3 (see [lib/costmodel]); [bootstrap_latency_us]
    is kept separately because Figure 4 reports the bootstrap share of the
    end-to-end time.

    The resilience counters ([injected_faults], [retries],
    [checkpoint_restores], [backoff_us]) are filled in by the
    fault-injection and retry layers ({!Faults}, {!Resilient}); they stay
    zero on a plain interpreter run.

    Each counter is declared once more, in {!counters}: {!assign},
    {!merge}, {!equal}, {!to_string} and the persist codec all walk that
    table, so adding a counter means a record field, its [create] value and
    one table entry (plus a persist format-version bump). *)

type t = {
  mutable addcc : int;
  mutable addcp : int;
  mutable subcc : int;
  mutable multcc : int;
  mutable multcp : int;
  mutable rotate : int;
  mutable rescale : int;
  mutable modswitch : int;
  mutable bootstrap : int;
  mutable total_latency_us : float;
  mutable bootstrap_latency_us : float;
  mutable injected_faults : int;  (** faults injected by {!Faults} *)
  mutable retries : int;  (** transient-fault retries by {!Resilient} *)
  mutable checkpoint_restores : int;
      (** loop iterations re-executed from their checkpoint *)
  mutable backoff_us : float;  (** total simulated backoff delay *)
  mutable checkpoint_writes : int;
      (** durable checkpoint entries written by the journal sink *)
  mutable checkpoint_bytes : int;  (** bytes of journal entries written *)
  mutable guard_trips : int;
      (** periodic in-loop noise-guard violations observed *)
  mutable key_switches : int;
      (** key-switch applies executed: relinearizations and nonzero
          rotations, hoisted or not *)
  mutable hoisted_groups : int;
      (** grouped rotations executed with a shared digit decomposition *)
  mutable decompositions_saved : int;
      (** digit decompositions avoided by hoisting (group size - 1 each) *)
  mutable deadline_aborts : int;
      (** executions aborted by a blown virtual-clock deadline *)
  mutable key_cache_hits : int;
      (** rotation-key lookups served from the resident key cache *)
  mutable key_cache_misses : int;
      (** rotation keys generated on first use *)
  mutable key_cache_evictions : int;
      (** rotation keys evicted cold under the byte budget *)
  mutable key_cache_regens : int;
      (** evicted rotation keys regenerated deterministically on re-use *)
  mutable digit_reuses : int;
      (** digit decompositions reused across consecutive ops on the same
          ciphertext (each also counts toward [decompositions_saved]) *)
  mutable lazy_rotsums : int;
      (** fused rotate-and-sum groups executed with a single mod-down *)
  mutable rescues : int;
      (** unplanned rescue bootstraps fired by the runtime noise monitor *)
  mutable rescue_aborts : int;
      (** rescue opportunities declined (budget exhausted, estimate already
          at the bootstrap floor, or a planned bootstrap superseded it) *)
  mutable replans : int;
      (** re-executions under a recompiled safer strategy after rescue
          could not keep the run inside its noise budget *)
}

val create : unit -> t

val record : t -> Halo_cost.Cost_model.op -> level:int -> unit
(** Count one primitive op at the given operand level. *)

val record_bootstrap : t -> target:int -> unit

val record_fault : t -> unit
val record_retry : t -> backoff_us:float -> unit
val record_restore : t -> unit
val record_checkpoint_write : t -> bytes:int -> unit
val record_guard_trip : t -> unit

val record_key_switch : t -> unit
(** Count one key-switch apply (a relinearization or a nonzero rotation). *)

val record_hoisted_group : t -> size:int -> unit
(** Count one executed hoisted-rotation group of [size] nonzero offsets:
    bumps [hoisted_groups] and charges [size - 1] to
    [decompositions_saved]. *)

val record_deadline_abort : t -> unit
(** Count one execution aborted by a blown {!Clock} deadline. *)

val record_key_cache :
  t ->
  hits:int ->
  misses:int ->
  evictions:int ->
  regens:int ->
  digit_hits:int ->
  unit
(** Fold key-cache and digit-reuse counters (read from the key set with
    [Halo_ckks.Keys.cache_stats]) into the record.  Call once at final
    reporting, never mid-run: kill/resume stats comparisons must not
    depend on cache warmth at the kill point.  [digit_hits] also counts
    toward [decompositions_saved] (each reuse skips one decomposition). *)

val record_lazy_rotsum : t -> unit
(** Count one fused rotate-and-sum group (single shared mod-down). *)

val record_rescue : t -> target:int -> unit
(** Count one rescue bootstrap at [target]: bumps [rescues] {e and}
    [bootstrap] (a rescue is an unplanned bootstrap) and charges
    {!Halo_cost.Cost_model.rescue_latency_us} to both latency totals. *)

val record_rescue_abort : t -> unit
(** Count one declined rescue opportunity. *)

val record_replan : t -> unit
(** Count one re-execution under a recompiled safer strategy. *)

type field =
  | Int of (t -> int) * (t -> int -> unit)
  | Us of (t -> float) * (t -> float -> unit)  (** a latency in µs *)

val counters : (string * field) list
(** Every counter as (name, getter/setter), in record order.  This is the
    persist frame's field order and is append-only. *)

val assign : into:t -> t -> unit
(** Overwrite every counter of [into] with [src]'s values.  Crash recovery
    uses this to reinstall the statistics snapshot stored with a checkpoint,
    so a resumed run reports the same counters as an uninterrupted one. *)

val merge : into:t -> t -> unit
(** Accumulate every counter of [src] into [into].  The serving layer runs
    each batch against its own statistics record (batches execute in
    parallel on the domain pool) and folds the per-batch records in batch
    order, so the aggregate is deterministic for any pool size. *)

val equal : t -> t -> bool
(** Every counter equal: integers by [=], latencies bit for bit. *)

val total_ops : t -> int
val compute_latency_us : t -> float
(** Non-bootstrap latency. *)

val to_string : t -> string
(** The op counts and latency, then [name=value] for every other nonzero
    counter, in {!counters} order. *)
