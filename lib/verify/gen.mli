(** Deterministic, seeded random program generator over the {!Halo.Dsl}
    surface: straight-line prologues, one or two top-level loops (optionally
    nested), static and dynamic iteration counts, 1-3 loop-carried variables
    mixing plain and cipher status, all binary operations, rotations,
    grouped rotations and slot sums ({!Halo.Dsl.sum_slots}), and references
    to live-in values from enclosing scopes.

    The same seed always yields the same program, so a failing fuzz seed is
    reproducible with [halo_cli verify --seed N]. *)

type t = {
  seed : int;
  prog : Halo.Ir.program;
  bindings : (string * int) list;
      (** Values for every dynamic iteration count the program uses. *)
}

val generate : ?slots:int -> ?max_level:int -> int -> t
(** [generate seed] builds the program for [seed] (default [slots] 256,
    [max_level] 16). *)
