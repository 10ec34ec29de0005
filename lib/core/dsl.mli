(** Frontend embedded DSL.

    The paper's frontend is a Python-based DSL that traces a program into
    structured IR; this module is its OCaml equivalent.  Programs written
    against it contain only arithmetic, rotations, constants and structured
    loops — no level-management operations.  The compiler pipeline
    ({!Strategy}) inserts rescale/modswitch/bootstrap.

    Example (iterative doubling):
    {[
      Dsl.build ~name:"double" ~slots:8 ~max_level:16 (fun b ->
          let x = Dsl.input b "x" ~size:8 in
          let y =
            match
              Dsl.for_ b ~count:(Ir.Dyn { name = "k"; add = 0; div = 1; rem = false })
                ~init:[ x ]
                (fun b -> function
                  | [ x ] -> [ Dsl.mul b x x ]
                  | _ -> assert false)
            with
            | [ y ] -> y
            | _ -> assert false
          in
          Dsl.output b y)
    ]} *)

type t
type value

val build :
  name:string -> slots:int -> max_level:int -> (t -> unit) -> Ir.program

val input : t -> ?status:Ir.status -> string -> size:int -> value
(** Declare a program input (default status [Cipher]).  [size] is the number
    of meaningful elements; the runtime replicates them across the slots. *)

val const : t -> float -> value
(** Scalar constant, broadcast to every slot. *)

val const_vec : t -> ?size:int -> float array -> value
(** Vector constant; [size] defaults to the array length. *)

val add : t -> value -> value -> value
val sub : t -> value -> value -> value
val mul : t -> value -> value -> value
val rotate : t -> value -> int -> value

val rotate_many : t -> value -> int list -> value list
(** Grouped rotation of one source by each offset (one result per offset,
    in order).  Backends decompose the source once and share the digits
    across the group (hoisted key switching); zero offsets are identity.
    Raises [Invalid_argument] on an empty offset list. *)

val for_ :
  t -> count:Ir.count -> init:value list -> (t -> value list -> value list) -> value list
(** Structured loop.  The body function receives the loop-carried values and
    returns the next-iteration values (same arity). *)

val output : t -> value -> unit

(** {1 Convenience combinators} *)

val sum_slots : t -> value -> size:int -> value
(** Sum [size] adjacent slots into every slot ([size] must be a power of
    two).  Emitted as ⌈log4 size⌉ pure [rot_sum] stages: stage [k] with
    step [s = 4^k] is [acc <- rot_sum acc, 0, s, 2s, 3s], and an odd
    [log2 size] ends with one radix-2 stage [rot_sum acc, 0, s].  Each stage
    keeps the level and scale, and a lattice backend runs it with one shared
    digit decomposition and one mod-down.  The stages need the rotation
    keys [s], [2s] and [3s] per radix-4 step ([s] for the final radix-2
    step): 9 keys for a 64-slot sum, where a radix-2 tree needs 6. *)

val mean_slots : t -> value -> size:int -> value
(** [sum_slots] divided by [size] (one plaintext multiplication). *)

val scale_by : t -> value -> float -> value
(** Multiply by a scalar constant. *)

val poly_eval : t -> value -> float array -> value
(** Evaluate the polynomial with coefficient vector [c.(0) + c.(1) x + ...]
    using a balanced power tree of multiplicative depth
    [ceil (log2 (degree + 1))]. *)
