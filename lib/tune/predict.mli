(** Static cost prediction: one walk over a compiled program prices it under
    the active {!Halo_cost.Cost_model} machine profile.

    The walk replays the interpreter's charging rule exactly — same op kind,
    same operand level (from {!Halo.Typecheck.infer_program}; runtime levels
    equal typechecked levels in verified programs), same dynamic multiplicity
    (loop trip counts from [bindings]; the type-matched property makes every
    iteration level-identical, so a loop body is priced once and multiplied).
    [b_base_us] is therefore {e exactly} the virtual latency a
    reference-backend execution of the same program reports, which pins the
    predicted strategy ordering to the measured one.

    On top of the base, the predictor prices effects the flat per-op charge
    cannot see: digit-decomposition sharing inside hoisted rotation groups,
    the lazy rotate-and-sum fusion delta (extended-basis MAC overhead vs
    saved mod-downs and deferred rescales — its sign is profile-dependent,
    which is what makes the lazy knob worth tuning), the cross-op digit
    memo, rotation-key generation for the program's
    {!Halo.Rotations.required} set, expected key regeneration under a byte
    budget, and limb-sliced domain-pool speedup with per-domain spawn
    overhead.

    Programs must be fully lowered (no composite pack/unpack);
    [Invalid_argument] otherwise, and on unbound loop counts. *)

open Halo

type breakdown = {
  b_compute_us : float;  (** arithmetic, rescale, modswitch *)
  b_keyswitch_us : float;
      (** rotations after hoisting, digit-memo and lazy adjustments *)
  b_bootstrap_us : float;
  b_keygen_us : float;  (** cold generation + expected budget-miss regen *)
  b_pool_us : float;  (** signed delta from domain-pool execution *)
  b_total_us : float;  (** sum of the five components above *)
  b_base_us : float;
      (** interpreter-parity latency: compute + flat rotations + bootstrap,
          before any adjustment — matches a measured run exactly *)
  b_bootstraps : int;  (** dynamic bootstrap count *)
  b_rotations : int;  (** dynamic nonzero-offset rotation count *)
  b_hoisted_groups : int;
  b_lazy_groups : int;
  b_digit_hits : int;
  b_key_count : int;  (** distinct rotation keys required *)
  b_working_set_bytes : int;  (** switching-key material for that set *)
}

type walk
(** Memoized accumulators from one program walk; reprice with {!price} under
    different deployment knobs without re-walking. *)

val walk_program : bindings:(string * int) list -> Ir.program -> walk

val price : ?pool:int -> ?key_budget:int -> walk -> breakdown
(** [pool] (default 1) is the domain pool size; [key_budget] (default 0 =
    unbounded) is the resident switching-key byte budget.  Every fused
    group in the walked program is priced with its lazy delta: the compile
    knobs already decided which [RotSum]s exist, and the lattice backend
    runs each one lazily whatever they are. *)

val program :
  ?pool:int ->
  ?key_budget:int ->
  bindings:(string * int) list ->
  Ir.program ->
  breakdown
(** [price] of [walk_program]. *)
