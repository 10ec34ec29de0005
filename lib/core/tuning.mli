(** Solution B-3: bootstrap target-level tuning (paper Section 6.3).

    Bootstrap latency grows with the target level (Table 3), and a
    modswitch downstream of a bootstrap means recovered levels were wasted.
    For each bootstrap, this pass finds the lowest target for which the
    whole program still walks within its level budget (feasibility is
    monotone in the target, so a binary search suffices), processing
    bootstraps in program order.  {!Normalize} afterwards regenerates the
    modswitches with correspondingly smaller down-factors.

    [slack] (default [0]) raises every tuned target by that many levels
    above its minimum, clamped to the original (pre-tuning) target — which
    is feasible by construction, so any slack value yields a feasible
    program.  Latency is monotone non-decreasing in [slack] (Table 3), but
    slack buys noise headroom; the autotuner sweeps it as the B-3 axis.

    {b Suffix walks.}  The program is walked once into one type
    environment.  A trial target for a bootstrap is then tested by walking
    only the rest of the bootstrap's own block, from the bootstrap to the
    block's yields, nested loops included, against that block's boundary.
    That is exact: a target changes only the values after the bootstrap in
    its block and in the loops nested there, and a loop's results sit at
    its boundary whatever its body does.  So with every other target fixed
    (and the program walking with them), the whole program walks exactly
    when that suffix does.  Each decision re-walks the suffix with the
    accepted target, so the environment is right for the next bootstrap.
    A program with no bootstraps is returned as it is, and so is one whose
    initial walk underflows (no lower target could make it walk). *)

val program : ?slack:int -> Ir.program -> Ir.program
