(** Homomorphic sigmoid: a 96th-order polynomial approximation on [[-8, 8]],
    matching the paper's logistic-regression configuration (multiplicative
    depth ~7 thanks to the log-depth Chebyshev evaluation). *)

val sigmoid_dsl : Halo.Dsl.t -> Halo.Dsl.value -> Halo.Dsl.value

val sigmoid_clear : float -> float
(** The same polynomial in cleartext (not the exact sigmoid: references for
    RMSE compare against what an exact-arithmetic run of the program would
    produce). *)

val sigmoid_exact : float -> float
(** [1 / (1 + exp (-x))]. *)
