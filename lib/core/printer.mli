(** Textual form of the IR.

    The format is stable and parseable ({!Parser} round-trips it); the
    benchmark harness also uses the byte length of the printed program as
    the paper's "code size" metric (Table 7) — vector constants are printed
    in full, matching the paper's note that code size includes constants. *)

val program_to_string : Ir.program -> string
val op_name : Ir.op -> string

val code_size_bytes : Ir.program -> int
(** [String.length (program_to_string p)]. *)
