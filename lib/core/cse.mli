(** Common-subexpression elimination.

    FHE operations are expensive enough that recomputing an identical value
    is never worth it; after pack/unpack lowering, the zero/one mask
    constants and repeated rotations in particular appear many times.  The
    pass deduplicates structurally identical pure operations within each
    block (loop bodies are processed independently: values must not be
    shared across the loop boundary, where levels differ per iteration).
    A pure [rot_sum] (a {!Dsl.sum_slots} stage) is keyed by its source and
    its offsets in term order.

    [Bootstrap] is deliberately never deduplicated — placement passes own
    those decisions. *)

val program : Ir.program -> Ir.program
