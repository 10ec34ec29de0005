(** Noise-budget guard: compile-time bound, decrypt-time verdict.

    The bound is {!Halo.Noise_budget.analyze} of the compiled program.  At
    decrypt, {!check} compares the observed error of each output against
    the predicted per-output bound scaled by [margin] and emits a health
    verdict — the only defense against {e silent} corruption (e.g. an
    injected noise spike, or a real accelerator mis-computation), which no
    retry can see.

    The static analysis is a worst-case order-of-magnitude bound, not a
    tight one: the default [margin] of [10.] matches the calibration
    asserted by the test suite (empirical error within ~10x of the static
    bound on the paper's workloads).

    On the reference backend [Halo_persist.Ref_run.guard] runs {!check}
    against {!Interp.reference} (the exact semantics), so a verdict needs
    no cleartext re-implementation of the program, and replans on a
    breach. *)

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

val default_margin : float
(** [10.0]: the calibration asserted by the test suite (empirical error
    within ~10x of the static bound on the paper's workloads). *)

val margin : unit -> float
(** The effective margin: [HALO_GUARD_MARGIN] when set to a positive
    finite float, {!default_margin} otherwise.  [check] and every CLI
    margin flag default through this, so the calibration is configurable
    end-to-end from the environment. *)

val check :
  ?margin:float ->
  Halo.Ir.program ->
  reference:float array list ->
  observed:float array list ->
  verdict
(** [reference] are the exact outputs ({!Interp.reference}), [observed]
    the decrypted ones; both in the program's output order. *)
