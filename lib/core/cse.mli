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

val const_fingerprint : Ir.const -> string
(** The key a constant is merged on (with its declared size): the IEEE bits
    of its elements, so two constants merge exactly when every element has
    the same bits.  [0.0] and [-0.0] stay apart, as do one-ulp neighbours;
    NaNs merge only with the same payload.  A vector is keyed by the digest
    of its bits. *)

val program : Ir.program -> Ir.program
