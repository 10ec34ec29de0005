(** Loop-invariant code motion.

    Pure operations whose operands are all defined outside a loop body
    compute the same value every iteration; hoisting them (a) removes their
    cost — and their level consumption — from the body, improving the
    unroll factor, and (b) keeps them out of unrolled copies, shrinking the
    generated code.  The pack/unpack masks are the most prominent case:
    after lowering, hoisting means each mask plaintext is encoded once per
    program instead of once per iteration.  A pure [rot_sum] (a
    {!Dsl.sum_slots} stage) is level- and scale-preserving like the
    rotations and adds it stands for, and hoists like them; a weighted one
    embeds a rescale and stays.

    [Bootstrap] and nested [For] operations are never moved — bootstrap
    placement is owned by {!Loop_codegen}/{!Dacapo}/{!Packing}, and loops
    are handled by their own passes. *)

val program : Ir.program -> Ir.program
