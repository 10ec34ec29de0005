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
    treatment of nested loops.

    {b Cost.}  For a block of [n] instructions, one optimistic walk types
    every value (the cipher/plain split liveness needs), one backward pass
    gives the live sets, and their sizes and costs are kept as arrays.
    Each candidate's reach is one forward simulation from the candidate to
    where it underflows, at most [n] instructions, run once and memoized;
    nothing is copied per candidate.  The simulation keeps the types it
    computes in arrays indexed by variable (sized by [fresh]) and stamped
    with the candidate.  The DP is then [O(n^2)] array reads per width
    tried.

    {b Reads from before the candidate.}  A simulation from [j] reads a
    value it did not compute itself (one defined before [j] in the block,
    a parameter or a free variable) as a maximum-level ciphertext if the
    optimistic walk typed it a ciphertext, and with that type otherwise.
    This is exactly "bootstrap everything live at [j]": the IR is SSA, so
    such a value read at [j] or later is not defined at or after [j], hence
    it is live at [j] if it is a ciphertext, and the bootstrap at [j] raises
    it to the maximum level.  A ciphertext that is not live at [j] is never
    read by the simulation. *)

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
