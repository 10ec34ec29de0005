(** Checked pass runner.

    [compile ~verify:true] routes compilation through the same pass list as
    {!Halo.Strategy.compile} but validates the IR after {e every} pass (at the
    strength the pipeline has established so far, see
    {!Halo.Strategy.milestone}) and compares a semantic fingerprint — the
    program's outputs under {!Halo_runtime.Interp.reference}, the single
    cleartext semantics, on fixed inputs — across consecutive evaluable
    stages.  The first broken invariant or fingerprint
    drift raises {!Verification_failure} naming the offending pass.

    Every pass output is checked and compared, but a pass that returns its
    input bit for bit ({!Halo.Ir.equal_program}) is not interpreted again:
    the interpreter is deterministic, so the input's fingerprint (or its
    failure to evaluate) is the output's. *)

open Halo

exception Verification_failure of {
  strategy : string;
  pass_name : string;
  detail : string;
}

val fixed_inputs : Ir.program -> (string * float array) list
(** Deterministic pseudo-random inputs in [[-0.9, 0.9]], keyed on input
    order, shared by the fingerprinter and the differential oracle. *)

val fingerprint :
  ?bindings:(string * int) list ->
  ?inputs:(string * float array) list ->
  Ir.program ->
  float array list
(** {!Halo_runtime.Interp.reference} on {!fixed_inputs} (or the given
    inputs): the program's exact outputs, invariant under every legal
    compiler transformation. *)

val max_deviation : float array list -> float array list -> float
(** Largest absolute slot-wise difference between two output lists,
    compared output by output over the shorter length; [0.] when equal. *)

type pass_report = {
  pass_name : string;
  milestone : Strategy.milestone;  (** strongest invariant checked *)
  ops : int;  (** operation count after the pass *)
  drift : float option;
      (** max fingerprint deviation vs the previous evaluable stage, when
          both stages were evaluable *)
}

val report_to_string : pass_report -> string

val compile :
  ?bindings:(string * int) list ->
  ?dacapo_config:Dacapo.config ->
  ?lower:bool ->
  ?knobs:Strategy.knobs ->
  ?verify:bool ->
  ?tol:float ->
  strategy:Strategy.t ->
  Ir.program ->
  Ir.program * pass_report list
(** Like {!Halo.Strategy.compile}, returning the per-pass reports.  With
    [verify] (default [true]) every pass output is validated; [tol] (default
    [1e-6]) bounds acceptable fingerprint drift.  [knobs] is passed through
    to {!Halo.Strategy.passes}; the final check is
    {!Halo.Strategy.verified}, reported as pass ["final-verify"].  Raises
    {!Verification_failure} attributing the first violation to a pass by
    name; [~verify:false] is exactly [Strategy.compile] (empty report). *)

type compiled = {
  program : Ir.program;
  reports : pass_report list;
  source_fp : float array list option;
      (** {!fingerprint} of the input program, [None] if it raised *)
  final_fp : float array list option;  (** {!fingerprint} of [program] *)
}

val compile_checked :
  ?bindings:(string * int) list ->
  ?dacapo_config:Dacapo.config ->
  ?lower:bool ->
  ?knobs:Strategy.knobs ->
  ?tol:float ->
  strategy:Strategy.t ->
  Ir.program ->
  compiled
(** [compile ~verify:true], also returning the source and final
    fingerprints the checked run computed, so a caller that compares them
    need not interpret either program again. *)

val check_passes :
  ?bindings:(string * int) list ->
  ?inputs:(string * float array) list ->
  ?tol:float ->
  ?strategy:string ->
  passes:Strategy.pass list ->
  Ir.program ->
  Ir.program * pass_report list
(** Run an explicit pass list under the same checking, e.g. to test that a
    deliberately broken pass is caught and attributed. *)
