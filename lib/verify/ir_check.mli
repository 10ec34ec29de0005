(** Structural IR validator.

    Unlike {!Halo.Typecheck.verify} (a single [Ok]/[Error]) this walks the
    whole program and returns {e every} violation it finds, each located by a
    dotted instruction path (e.g. [body.3.for.1]) and tagged with the rule it
    breaks, so a broken pass can be diagnosed in one shot.  It never raises.

    Rules checked by {!structural}:
    - [ssa]: every variable has exactly one binding occurrence (inputs,
      block parameters, instruction results);
    - [scope]: every operand and yield refers to a variable bound earlier in
      the same block, in an enclosing block, or as a program input;
    - [inputs]: the program body's parameters are exactly the declared inputs;
    - [for-arity]: a loop's inits, body parameters, yields and results all
      have the same arity;
    - [arity]: non-loop instructions bind exactly one result;
    - [count]: static iteration counts are non-negative, divisors positive;
    - [boundary]: loop boundary annotations lie in [[1, max_level]];
    - [const-size]: vector constants carry their declared size;
    - [pack-shape]: pack/unpack [num_e], source/segment counts and indices are
      consistent and fit the slot budget.

    {!leveled} adds the {!Halo.Levels} walk ([levels] rule: bootstraps placed,
    boundaries set, no level underflow); {!typed} adds the strict
    {!Halo.Typecheck.verify} ([typecheck] rule: scales managed, levels
    aligned) and {!level_waste}. *)

type violation = { path : string; rule : string; msg : string }

val to_string : violation -> string
val violations_to_string : violation list -> string

val structural : Halo.Ir.program -> violation list
val leveled : Halo.Ir.program -> violation list
val typed : Halo.Ir.program -> violation list

val level_waste : Halo.Ir.program -> violation list
(** [level-waste]: a value produced by [rotate], [rotate_many], [rot_sum],
    a binary op or [rescale] whose every reader is a [modswitch] — the op
    ran at a level nobody consumes it at.  The nonzero rotations of one
    source within one block (the group rotate-fuse hoists) count as one
    value, as do the results of one [rotate_many].  Normalized code has
    none: {!Halo.Normalize} produces every value at the level its most
    demanding reader wants. *)

val at : Halo.Strategy.milestone -> Halo.Ir.program -> violation list
(** Check at the strength a pipeline milestone guarantees. *)
