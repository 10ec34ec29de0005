(** Noise-budget guard: compile-time bound, decrypt-time verdict.

    At compile time {!analyze} runs {!Halo.Noise_budget.analyze} on the
    compiled program.  At decrypt, {!check} compares the observed error of
    each output against the predicted per-output bound scaled by [margin]
    and emits a health verdict — the only defense against {e silent}
    corruption (e.g. an injected noise spike, or a real accelerator
    mis-computation), which no retry can see.

    The static analysis is a worst-case order-of-magnitude bound, not a
    tight one: the default [margin] of [10.] matches the calibration
    asserted by the test suite (empirical error within ~10x of the static
    bound on the paper's workloads).

    {!run_ref} is the reference-backend convenience used by the CLI: it
    executes the program on [Halo_ckks.Ref_backend] with calibrated noise
    and checks the outputs against {!Interp.reference} (the exact
    semantics), so a verdict needs no cleartext re-implementation of the
    program. *)

type verdict =
  | Healthy of { observed : float; bound : float }
  | Breach of { observed : float; bound : float; output : int; slot : int }
      (** observed error exceeds the scaled bound: silent corruption or a
          broken noise model *)
  | Unbounded of { observed : float }
      (** the static analysis found a loop growing noise without bootstrap;
          no bound exists to check against *)

val healthy : verdict -> bool
val verdict_to_string : verdict -> string

val analyze :
  ?units:Halo.Noise_budget.units -> Halo.Ir.program -> Halo.Noise_budget.report

val default_margin : float
(** [10.0]: the calibration asserted by the test suite (empirical error
    within ~10x of the static bound on the paper's workloads). *)

val margin : unit -> float
(** The effective margin: [HALO_GUARD_MARGIN] when set to a positive
    finite float, {!default_margin} otherwise.  [check] and every CLI
    margin flag default through this, so the calibration is configurable
    end-to-end from the environment. *)

val check :
  ?units:Halo.Noise_budget.units ->
  ?margin:float ->
  Halo.Ir.program ->
  reference:float array list ->
  observed:float array list ->
  verdict
(** [reference] are the exact outputs ({!Interp.reference}), [observed]
    the decrypted ones; both in the program's output order. *)

val run_ref :
  ?units:Halo.Noise_budget.units ->
  ?margin:float ->
  ?backend_seed:int ->
  ?scale_bits:int ->
  ?bindings:(string * int) list ->
  inputs:(string * float array) list ->
  Halo.Ir.program ->
  float array list * Stats.t * verdict
(** Run on the reference backend and guard the outputs.  [backend_seed]
    defaults to the backend's default; [scale_bits] to 51. *)
