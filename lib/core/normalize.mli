(** Scale management: materialize [rescale] and [modswitch].

    Given a program whose interesting decisions (bootstrap placement, loop
    boundaries, packing, unrolling) have been made, this pass deterministically
    inserts the level-management bookkeeping, in the style of EVA/Hecate's
    scale managers:

    - every ciphertext multiplication is followed by a [rescale] (so scales
      stay at one Delta unit at instruction boundaries);
    - every ciphertext operation runs at the level its result is consumed
      at (lower-level ops are faster, Table 2).  Starting from each value's
      level under plain alignment (the model {!Levels} walks), a backward
      demand walk gives each value the highest level any reader needs it
      at: a loop init or yield needs the loop's boundary; a bootstrap,
      unpack or program output keeps its source's level; a pack needs its
      lowest source's level; an op passes on the level its result is
      produced at, one higher for a multiplication or a weighted rot_sum; a
      value nobody reads is produced at level 1.  An operand
      is then lowered by [modswitch] to [min (operand levels, demand)] (or
      [demand + 1] where the op consumes a level), which also aligns the
      operands of cipher-cipher operations.  So no op runs at a level that
      is dropped right after, while every sink — loop boundaries,
      bootstraps, packs, outputs — sees the level it saw under plain
      alignment: bootstrap placement, {!Levels}' answers and the
      rotation-key set do not change;
    - the nonzero rotations of one source within a block run at one level,
      the highest any of them is wanted at, so rotate-fuse still finds one
      group per source;
    - a [modswitch] copy is made once per (value, level) and block; a copy
      made inside a loop body is not visible outside it.

    Pre-existing [rescale]/[modswitch] instructions are stripped and
    regenerated, which makes the pass idempotent and lets later passes (e.g.
    bootstrap target tuning) simply edit bootstrap targets and re-normalize.

    Raises {!Underflow} when a multiplication, pack/unpack or boundary
    alignment would push a ciphertext below level 1 — the signal that
    additional bootstrapping is required (handled by {!Dacapo}). *)

exception Underflow of string

val program : Ir.program -> Ir.program
(** Normalize a whole program.  Loops carrying ciphertexts must have their
    [boundary] set (i.e. {!Loop_codegen} must have run); raises
    [Typecheck.Type_error] otherwise. *)
