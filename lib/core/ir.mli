(** HALO's intermediate representation.

    The IR mirrors the paper's traced code (Section 4.3): SSA values, the
    RNS-CKKS operation set, and a structured [For] operation in the style of
    MLIR's scf dialect that makes loop-carried variables, iteration counts
    (constant or runtime-bound) and element counts explicit.

    Blocks own their instructions and name their parameters; a [For] body's
    parameters are the loop-carried variables.  Blocks may freely reference
    values defined in enclosing blocks (live-in variables). *)

type var = int

(** Loop iteration counts.  [Static n] is a compile-time constant.
    [Dyn { name; add; div; rem }] is evaluated at run time from the binding
    of [name] as [(name + add) / div] (or [mod div] when [rem] is true);
    peeling uses [add = -1], level-aware unrolling uses [div] and emits a
    [rem] remainder loop. *)
type count =
  | Static of int
  | Dyn of { name : string; add : int; div : int; rem : bool }

type status = Plain | Cipher

type binop = Add | Sub | Mul

(** Plaintext constants.  [Splat] broadcasts a scalar to every slot; vectors
    carry an element count used by the packing analysis. *)
type const = Splat of float | Vector of float array

type op =
  | Const of { value : const; size : int }
  | Binary of { kind : binop; lhs : var; rhs : var }
  | Rotate of { src : var; offset : int }
  | RotateMany of { src : var; offsets : int list }
      (** Grouped rotation of one source ciphertext: one result per offset,
          in order.  Semantically exactly the sequence of single [Rotate]s;
          backends with hoistable key-switch work share one digit
          decomposition across the group.  The only multi-result operation
          besides [For]. *)
  | RotSum of { src : var; terms : (int * var option) list }
      (** Fused rotate-and-sum reduction: [sum_g coeff_g * rotate(src, o_g)]
          folded left in term order.  Coefficients must be plain operands
          and are either all present (the matvec_diag shape: each member's
          multiply and rescale is absorbed, the result drops one level and
          keeps the source's scale) or all absent (a pure rotate-and-sum at
          the source's level).  Zero offsets contribute the (scaled) source
          without a key switch.  Backends with hoistable key-switch work pay
          one digit decomposition and one mod-down for the whole group. *)
  | Rescale of { src : var }
  | Modswitch of { src : var; down : int }
  | Bootstrap of { src : var; target : int }
  | Pack of { srcs : var list; num_e : int }
  | Unpack of { src : var; index : int; num_e : int; count : int }
  | For of for_op

and for_op = {
  count : count;
  inits : var list;
  body : block;
  boundary : int option;
      (** Loop-carried ciphertext level at the body boundary; set by the
          type-matching pass, [None] on traced code. *)
}

and block = { params : var list; instrs : instr list; yields : var list }

and instr = { results : var list; op : op }

type input = { in_name : string; in_var : var; in_status : status; in_size : int }

type program = {
  prog_name : string;
  slots : int;
  max_level : int;
  inputs : input list;
  body : block;  (** top-level block; its params are the input variables *)
  next_var : int;  (** first unused variable id, for pass-side cloning *)
}

(** {1 Construction helpers} *)

val result : instr -> var
(** The single result of an instruction; raises on multi-result. *)

(** {1 Traversal} *)

val op_operands : op -> var list
(** Variables read directly by an operation (a [For]'s body is not entered:
    only its [inits] are operands). *)

val map_op_operands : (var -> var) -> op -> op
(** Rename the directly-read variables of an operation (not body contents). *)

val substitute_block : (var -> var) -> block -> block
(** Rename every variable occurrence in a block, including inside nested
    bodies; binding occurrences (params, results) are renamed too, so the
    substitution must be injective on them. *)

val free_vars : block -> var list
(** Variables referenced by a block (recursively) but defined outside it. *)

val defined_vars : block -> var list
(** Parameters plus all instruction results, recursively excluded from
    nested blocks (nested definitions are not visible outside). *)

val iter_blocks : (block -> unit) -> block -> unit
(** Apply to the block and, recursively, to every nested [For] body
    (pre-order). *)

val count_ops : ?p:(op -> bool) -> block -> int
(** Number of instructions (recursively) satisfying [p] (default: all). *)

val count_static_bootstraps : block -> int
(** Static [Bootstrap] instruction count, recursive. *)

(** {1 Fresh-variable cloning} *)

type fresh = { mutable next : int }

val fresh_of_program : program -> fresh
val fresh_var : fresh -> var

val clone_block : fresh -> subst:(var * var) list -> block -> block
(** Copy a block giving fresh names to every binding occurrence; [subst]
    entries win over the generated names (e.g. mapping loop parameters to
    init values when peeling). *)

val inline_block : fresh -> args:var list -> block -> instr list * var list
(** Instantiate a block's body with [args] substituted for its parameters;
    returns the freshly-named instructions and the corresponding yields. *)

(** {1 Misc} *)

val count_to_string : count -> string

val eval_count : bindings:(string * int) list -> count -> int
(** Evaluate an iteration count; raises [Not_found] if a dynamic binding is
    missing, [Invalid_argument] on a negative result. *)

val equal_program : program -> program -> bool
(** Bit-exact equality: every field, instruction and name equal, with
    float constants compared by their IEEE bits ([0.0] and [-0.0] differ;
    a NaN equals a NaN of the same bits).  Two equal programs therefore
    compute the same bits on any backend. *)
