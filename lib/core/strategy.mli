(** The five compilation strategies compared in the paper's evaluation
    (Section 7):

    - [Dacapo]: the baseline — fully unroll every loop (iteration counts
      must be bound), then run the DaCapo bootstrapping placement on the
      resulting straight-line program.
    - [Type_matched]: peeling + Algorithm 1, no optimization.
    - [Packing]: [Type_matched] + loop-carried ciphertext packing (B-1).
    - [Packing_unrolling]: [Packing] + level-aware unrolling (B-2).
    - [Halo]: all optimizations, adding bootstrap target tuning (B-3).

    Every pipeline ends with pack/unpack lowering, scale-management
    normalization and verification, so compiled programs always satisfy
    {!Typecheck.verify}. *)

type t = Dacapo | Type_matched | Packing | Packing_unrolling | Halo

val all : t list
val to_string : t -> string
val of_string : string -> t option

val safer : t -> t option
(** The conservative replan ladder: the next-safer strategy to recompile
    under when a run keeps breaching its noise budget despite rescue
    bootstraps.  Each step disables one noise-amplifying optimization
    ([Halo] → [Packing_unrolling] → [Packing] → [Type_matched] →
    [Dacapo]); [None] at the bottom means nothing safer remains. *)

(** {1 Pass pipeline}

    Each strategy is an explicit list of named passes.  [Halo_verify.Pipeline]
    routes compilation through this list to validate the IR after every pass
    and attribute any broken invariant to the offending pass by name. *)

type milestone = Structure | Leveled | Typed
(** The strongest invariant a pass's {e output} is guaranteed to satisfy:
    - [Structure]: well-formed SSA with scoped references (holds throughout);
    - [Leveled]: additionally satisfies the level-walk discipline of
      {!Levels} (boundaries set, bootstraps placed);
    - [Typed]: additionally passes the strict {!Typecheck.verify} (scales
      managed, levels aligned). *)

val milestone_rank : milestone -> int
(** [Structure < Leveled < Typed]. *)

type pass = {
  pass_name : string;  (** Unique within one pipeline; used for attribution. *)
  milestone : milestone option;
      (** The milestone this pass {e establishes}.  [None] means the pass
          preserves whatever milestone already held. *)
  run : Ir.program -> Ir.program;
}

type knobs = {
  unroll : int;
      (** B-2 unroll-factor cap ({!Unroll.program}'s [factor_cap]): [0] is
          the level-budget-derived default, [1] disables unrolling *)
  boot_slack : int;
      (** B-3 slack: levels tuned bootstrap targets sit above their minimum
          ({!Tuning.program}'s [slack]); [0] is the tightest target *)
  rotate_fuse : bool;
      (** append {!Rotate_fuse}, grouping same-source rotations into
          hoisted {!Ir.op.RotateMany} groups *)
  lazy_switch : bool;
      (** append {!Lazy_switch}, fusing rotate-and-sum reductions into
          single {!Ir.op.RotSum} operations that share one digit
          decomposition and one mod-down *)
}
(** The compile configuration beyond the strategy: the four knobs the
    autotuner sweeps, a tuned plan persists and the CLI exposes.  Unroll
    and slack only affect the strategies that run those passes
    ([Packing_unrolling] and [Halo] unroll, [Halo] tunes targets). *)

val default_knobs : knobs
(** [{ unroll = 0; boot_slack = 0; rotate_fuse = true; lazy_switch = true }]. *)

val passes :
  ?bindings:(string * int) list ->
  ?dacapo_config:Dacapo.config ->
  ?lower:bool ->
  ?knobs:knobs ->
  strategy:t ->
  unit ->
  pass list
(** The exact pass sequence [compile] folds over, in order. *)

val verified : strategy:t -> Ir.program -> Ir.program
(** [p] itself when it passes {!Typecheck.verify}; raises
    [Typecheck.Type_error] naming [strategy] otherwise.  The final check of
    every compile, checked ([Halo_verify.Pipeline.compile]) or not. *)

val compile :
  ?bindings:(string * int) list ->
  ?dacapo_config:Dacapo.config ->
  ?lower:bool ->
  ?knobs:knobs ->
  ?observer:(pass:pass -> before:Ir.program -> after:Ir.program -> unit) ->
  strategy:t ->
  Ir.program ->
  Ir.program
(** [bindings] resolves dynamic iteration counts; only the [Dacapo] strategy
    needs them (raises [Not_found] when missing).  [lower] (default [true])
    expands pack/unpack into primitive operations.  [knobs] defaults to
    {!default_knobs}.  [observer] is invoked after every pass with the
    program before and after it (per-pass timing and tracing).  The result
    is {!verified}. *)
