(** Static worst-case noise estimation.

    Tracks an upper bound on each value's error relative to its scale, in
    the style of EVA/ELASM's error analyses (the scale-management lineage
    the paper builds on): encryption, key switching, rescale rounding and
    bootstrapping each contribute a unit of {!Halo_cost.Noise_units}; multiplication adds the
    operands' relative bounds plus a relinearization unit, and addition
    takes the larger bound (assuming no catastrophic cancellation, the
    usual affine simplification).

    For type-matched loops the head bootstrap makes the carried noise
    iteration-independent, which the analysis verifies by checking the
    yield bound against the loop-entry bound — if a carried value's noise
    grows per iteration (e.g. the program was compiled without
    bootstrapping), the estimate is reported as unbounded. *)

type report = {
  per_output : float list;  (** worst-case relative error bound per output *)
  worst : float;
  bounded : bool;  (** false if some loop grows noise without bootstrap *)
}

val analyze : Ir.program -> report
(** The bound under {!Halo_cost.Noise_units.default}, the unit table the
    runtime per-ciphertext estimators use too. *)

val threshold : margin:float -> report -> float
(** The largest runtime noise estimate tolerable at decrypt:
    [margin *. worst] for bounded reports.  Unbounded programs have no
    finite whole-run bound, so the threshold falls back to
    [margin] times the bootstrap unit — the steady state of a healthy
    bootstrapped loop.  The runtime {!Halo_runtime.Noise_monitor} divides
    this by its rescue margin to decide when to fire. *)
