(** Static types and the strict program verifier.

    A value is either a plaintext vector or a ciphertext with a level and a
    scale exponent (in units of the base scale Delta; rescale removes one
    unit).  The verifier enforces the RNS-CKKS operation constraints from
    the paper's Section 2 — equal levels and scales for addcc, equal levels
    for multcc, level bounds for rescale/modswitch/bootstrap — and, on
    loops, the type-matched property of Section 4.1: loop-carried values
    must have identical types at the body's entry and exit. *)

type ty = Tplain | Tcipher of { level : int; scale : int }

val ty_to_string : ty -> string

exception Type_error of string

(** [infer_program p] type-checks [p] and returns the typing environment.
    Raises {!Type_error} on any violation (including non-type-matched
    loops). *)
val infer_program : Ir.program -> (Ir.var, ty) Hashtbl.t

(** [verify p] is [Ok ()] or [Error message]. *)
val verify : Ir.program -> (unit, string) result
