(** Pure level tracking under plain alignment: operands meet at the
    minimum operand level, one level is consumed per ciphertext
    multiplication and per pack/unpack mask, and nothing is lowered
    otherwise.  Used by {!Dacapo} to find where a block runs out of levels
    and by {!Loop_codegen} to measure body consumption.

    The levels it gives are exact at the sinks — loop inits and yields,
    bootstraps, packs, unpacks and program outputs — and those are the
    levels the compiler's decisions rest on.  Between sinks they are upper
    bounds: {!Normalize} runs each op at the level its result is consumed
    at, so an intermediate value in normalized code may sit lower. *)

exception Underflow of { index : int; msg : string }
(** [index] is the position (within the walked instruction sequence) of the
    instruction that cannot execute. *)

val op_result :
  max_level:int -> index:int -> Ir.op -> operand_tys:Typecheck.ty list -> Typecheck.ty
(** Result type of a non-[For] operation under alignment semantics; raises
    {!Underflow} when the operation would need a level below 1. *)

val walk_block :
  max_level:int ->
  env:(Ir.var, Typecheck.ty) Hashtbl.t ->
  param_tys:Typecheck.ty list ->
  boundary:int option ->
  Ir.block ->
  Typecheck.ty list
(** Forward walk of a block (nested type-matched loops are treated as black
    boxes: cipher inits must reach their boundary, results come back at it).
    Extends [env] with every definition and returns the yield types; raises
    {!Underflow} like {!op_result}, also for yields below [boundary]. *)
