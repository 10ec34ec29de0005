(** Seeded synthetic datasets for the seven benchmarks.

    The paper trains on random regression inputs, random clusters, the UCI
    breast-cancer dataset (logistic) and iris (PCA).  Per the substitution
    table in DESIGN.md, the two real datasets are replaced by seeded
    synthetic sets with matching shape: a two-class Gaussian projection for
    logistic regression, and a three-cluster 4-feature mixture whose means
    and spreads follow the published iris per-species summary statistics.
    The experiments measure loop structure, bootstrap counts and noise — not
    dataset-specific accuracy — so the substitution preserves the relevant
    behaviour. *)

type rng = Random.State.t

val linear : seed:int -> size:int -> w:float -> b:float -> float array * float array
(** [(x, y)] with [y = w x + b + noise], [x] uniform in [[-1, 1]]. *)

val polynomial :
  seed:int -> size:int -> w2:float -> w1:float -> b:float -> float array * float array

val multivariate :
  seed:int -> size:int -> weights:float array -> b:float ->
  float array array * float array
(** [(features, y)] with one feature vector per weight. *)

val two_class : seed:int -> size:int -> float array * float array
(** 1-D projection of a two-class Gaussian problem; labels in {0, 1}.
    Stands in for the breast-cancer dataset. *)

val clusters : seed:int -> size:int -> float array
(** 1-D points drawn from two clusters around ±0.6 (K-means, SVM). *)

val clusters_labeled : seed:int -> size:int -> float array * float array
(** [(points, labels)] with labels in {-1, +1} (SVM). *)

val iris_like : seed:int -> size:int -> float array array
(** Four feature vectors sampled from a three-cluster mixture with the
    iris species' published means/spreads, then scaled into [[-1, 1]]. *)
