(** Dead-code elimination: drops instructions none of whose results are used
    (every IR operation is pure).  Applied after tracing and between passes
    to keep the measured code size honest. *)

val program : Ir.program -> Ir.program
