(** PCA by power iteration — the nested-loop benchmark (paper Section 7.4):
    homomorphic covariance in Halevi-Shoup diagonal form, Newton
    inverse-square-root as the inner loop; see the implementation header. *)

val benchmark : Bench_def.t
