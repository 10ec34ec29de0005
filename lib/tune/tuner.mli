(** Cost-model-driven strategy autotuner.

    [tune] enumerates the full configuration space — compilation strategy ×
    B-2 unroll-factor cap × B-3 bootstrap-target slack × rotation fusion ×
    lazy key-switching × resident-key byte budget × domain-pool size —
    prices every candidate by walking the compiled IR through
    {!Halo_cost.Cost_model} (see {!Predict}), and returns the argmin as a
    persistable {!Plan.t} together with the verified compiled program.

    The default search prunes dominated points: rotation fusion is never
    priced off (hoisted groups only remove digit decompositions), both
    lazy key-switching settings come from one pipeline run (the lazy-switch
    pass is its last step, so the lazy-off program is the run without it),
    positive bootstrap slack and sub-working-set key budgets are cut by
    monotonicity, and the pool sweep stops at the first cost increase
    (convexity).  [~exhaustive:true] compiles and prices every point;
    because both modes enumerate in the same order and every prune discards
    only later-ordered, never-cheaper points, the two argmins coincide —
    the property [test_tuning] checks on generated programs.

    The winning configuration is never shipped unverified: it is recompiled
    through {!Halo_verify.Pipeline.compile} with per-pass validation, and
    its cleartext fingerprint is compared against the untuned source
    program's; {!Halo_verify.Pipeline.Verification_failure} on drift beyond
    [tol]. *)

open Halo

type candidate = {
  c_strategy : Strategy.t;
  c_knobs : Strategy.knobs;
  c_key_budget : int;
  c_pool : int;
}

val candidate_to_string : candidate -> string

type result = {
  r_best : candidate;
  r_breakdown : Predict.breakdown;
  r_fixed : (Strategy.t * Predict.breakdown) list;
      (** default-knob prediction per strategy, the hand-picked baselines *)
  r_compiles : int;  (** pass-pipeline runs performed by the search *)
  r_evaluated : int;  (** candidates actually priced *)
  r_pruned : int;  (** candidates eliminated by a dominance argument *)
  r_drift : float;  (** tuned-vs-source fingerprint deviation *)
  r_plan : Plan.t;
}

val tune :
  ?exhaustive:bool ->
  ?bindings:(string * int) list ->
  ?name:string ->
  ?tol:float ->
  Ir.program ->
  result * Ir.program
(** Search, verify, and return the plan plus the compiled tuned program.
    [name] labels the plan (default ["program"]); [tol] (default [1e-6])
    bounds both per-pass and end-to-end fingerprint drift. *)

val compile_plan :
  ?verify:bool ->
  ?tol:float ->
  bindings:(string * int) list ->
  Plan.t ->
  Ir.program ->
  Ir.program * Halo_verify.Pipeline.pass_report list
(** Compile a source program under a previously saved plan's knobs (the
    caller pins the fingerprint when it loads {!Plan.artifact}). *)

val report : result -> string
(** Human-readable cost table: one row per fixed strategy baseline plus the
    autotuned row, with component splits and the predicted speedup. *)
