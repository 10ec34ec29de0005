(** DaCapo-style automatic bootstrapping placement (the paper's baseline,
    USENIX Security'24, re-implemented from its description in Sections 5.3
    and 7).

    Given a block that runs out of levels, the pass:

    + computes live ciphertext sets at every program point (liveness
      filtering: only points whose live count is at most [filter_width] are
      candidates, doubling the width if that leaves no feasible plan — the
      heuristic the paper blames for DaCapo's missed solutions);
    + for each candidate point, simulates forward from "all live ciphertexts
      bootstrapped to the maximum level" to find how far execution can
      proceed (its {i reach});
    + runs dynamic programming over candidates to cover the whole block at
      minimal modeled bootstrap cost (live count times the Table 3 latency
      at the maximum target level);
    + materializes a [bootstrap] to the maximum level for every live
      ciphertext at each chosen point.

    Nested loops are treated as black boxes (inits must reach their
    boundary, results return at it), matching the paper's recursive
    treatment of nested loops. *)

type config = { filter_width : int }

val place_in_block :
  ?config:config ->
  fresh:Ir.fresh ->
  max_level:int ->
  env:(Ir.var, Typecheck.ty) Hashtbl.t ->
  param_tys:Typecheck.ty list ->
  boundary:int option ->
  Ir.block ->
  Ir.block
(** Returns the block with bootstraps inserted (unchanged if it already
    walks without underflow).  [env] types the block's free variables; it is
    not modified.  Raises [Typecheck.Type_error] if no feasible plan exists
    even with an unbounded candidate set. *)
