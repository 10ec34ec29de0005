(** Linear-algebra combinators over the DSL's replicated-SIMD layout.

    These capture the vector idioms the paper's machine-learning workloads
    are built from: rotate-and-add reductions, dot products, means and
    variances over sample vectors, and matrix-vector products in
    Halevi–Shoup diagonal form (the layout that turns an [d x d] product
    into [d] rotations and multiplications).  Element counts must be powers
    of two, matching the runtime's replication convention. *)

val dot : Dsl.t -> Dsl.value -> Dsl.value -> size:int -> Dsl.value
(** Inner product over [size] adjacent slots, result replicated everywhere
    (one multiplication + the [rot_sum] stages of {!Dsl.sum_slots}). *)

val variance : Dsl.t -> Dsl.value -> size:int -> Dsl.value
(** Population variance [E(x^2) - E(x)^2] (multiplicative depth 2). *)

val covariance :
  Dsl.t -> Dsl.value -> Dsl.value -> size:int -> Dsl.value
(** [E(xy) - E(x) E(y)]. *)

val weighted_step :
  Dsl.t -> Dsl.value -> grad:Dsl.value -> lr:float -> size:int ->
  Dsl.value
(** Gradient-descent update [w - lr * mean(grad)], the per-variable step
    every regression benchmark performs (the learning rate is folded into
    the reduction's plaintext factor, costing a single level). *)

val matvec_diag :
  Dsl.t -> diags:Dsl.value list -> Dsl.value -> Dsl.value
(** [sum_g diag_g * rot(v, g)]: matrix-vector product with the matrix in
    generalized-diagonal form; [diags] lists diagonal [g] at index [g]. *)

val diagonals_of :
  Dsl.t -> entry:(int -> int -> Dsl.value) -> dim:int -> Dsl.value list
(** Assemble encrypted generalized diagonals from an entry accessor:
    [diag_g[f] = entry f ((f + g) mod dim)], each entry masked into its slot
    with a one-hot plaintext. *)
