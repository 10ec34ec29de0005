(** The interpreter: executes a program against a backend, with dynamic
    iteration-count bindings and latency accounting.

    Plaintext values flow as cleartext slot vectors, rotated and
    rotate-summed by {!Clear_backend}; mixed operations map to
    [addcp]/[multcp]; loop-carried values are rebound each iteration.  Input
    vectors shorter than the slot count are replicated (period padded to a
    power of two), the layout the paper's packing optimization relies on.
    Composite [pack]/[unpack] run the mask-multiply-rotate-add recipe
    {!Halo.Lower_pack} emits, through the same operation paths, so a lowered
    and an unlowered program compute the same values.

    The interpreter over {!Clear_backend} is the single cleartext semantics:
    {!reference} is what compiler passes are fingerprinted with and what
    noisy executions are guarded against.

    Failures raise {!Halo_error.Interp_error} carrying the instruction's
    result variable and operation name, so a fuzz-oracle or soak failure is
    attributable without re-running under a debugger. *)

module Make (B : Backend.S) : sig
  type value = Plain of float array | Cipher of B.ct

  (** Execution hooks used by the fault-tolerant runtime ({!Resilient}).

      [instr site thunk] wraps the execution of one non-loop instruction;
      invoking [thunk] again after a transient fault re-executes just that
      instruction (safe: its operands are still bound).

      [iteration ~loop ~index thunk] wraps one loop iteration; the
      loop-carried values at the iteration head are captured by [thunk], so
      invoking it again re-executes the iteration from that checkpoint.
      [index] is 0-based from the first iteration.

      [loop_enter ~loop ~count args] fires once at each [For] head with the
      initial loop-carried values; it returns [(start, args')] and the loop
      executes iterations [start .. count - 1] from [args'].  The identity
      hook returns [(0, args)]; a crash-recovery driver returns the
      iteration index and carried values restored from a durable checkpoint,
      fast-forwarding the loop ([Halo_persist.Recovery]).  [start] outside
      [0, count] is an {!Halo_error.Interp_error}.

      [at_bootstrap ~site ~target ct] fires immediately before each planned
      bootstrap with the input ciphertext — the noise monitor's observation
      point for pressure a planned bootstrap is about to relieve anyway. *)
  type protect = {
    instr : Halo_error.site -> (unit -> unit) -> unit;
    iteration :
      loop:Halo_error.site -> index:int -> (unit -> value list) -> value list;
    loop_enter :
      loop:Halo_error.site -> count:int -> value list -> int * value list;
    at_bootstrap : site:Halo_error.site -> target:int -> B.ct -> unit;
  }

  val replicate : slots:int -> float array -> float array
  (** Pad to the next power-of-two length and tile across the slots. *)

  val run :
    ?protect:protect ->
    ?stats:Stats.t ->
    B.state ->
    ?bindings:(string * int) list ->
    inputs:(string * float array) list ->
    Halo.Ir.program ->
    float array list * Stats.t
  (** Outputs are decrypted slot vectors (cleartext outputs pass through).
      Raises {!Halo_error.Interp_error} on missing inputs/bindings or a
      mis-sized vector constant.  When [stats] is supplied the counters are
      accumulated into it (and it is the returned record). *)
end

val reference :
  ?bindings:(string * int) list ->
  inputs:(string * float array) list ->
  Halo.Ir.program ->
  float array list
(** The exact outputs: the program run on {!Clear_backend}, where levels,
    scales and noise do not exist and [rescale]/[modswitch]/[bootstrap] are
    identity.  Invariant under every legal compiler transformation, and
    equal slot for slot to a noiseless {!Halo_ckks.Ref_backend} run.
    Raises like {!Make.run}. *)
