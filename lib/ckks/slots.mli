(** Cleartext slot kernels: typed loops and blits over [float array] slot
    vectors, without closures or boxed floats.

    The one set of slot loops behind {!Ref_backend}'s noiseless ops and
    every op of [Halo_runtime.Clear_backend] (and so the interpreter's
    plaintext values and {!Halo_runtime.Interp.reference}).  Each kernel
    computes exactly the per-slot definition given here, with the same IEEE
    operation per slot, so the two backends agree bit for bit.  Binary
    kernels raise [Invalid_argument] on unequal lengths before reading a
    slot. *)

val add : float array -> float array -> float array
(** [x.(i) +. y.(i)]. *)

val sub : float array -> float array -> float array
(** [x.(i) -. y.(i)]. *)

val mul : float array -> float array -> float array
(** [x.(i) *. y.(i)]. *)

val neg : float array -> float array
(** [-. x.(i)]. *)

val rotate : float array -> offset:int -> float array
(** [x.((i + offset) mod n)] with the index wrapped into [[0, n)] for any
    [offset], negative ones included ([n] is the length of [x]). *)

val sum_rotations : float array -> offsets:int list -> float array
(** [Σ rotate x o] over [offsets] in one pass per offset, each slot added
    left to right in offset order: the bits of the unfused rotate-and-add
    chain.  The pure [rot_sum] of both backends.  Raises [Invalid_argument]
    on an empty list. *)

val replicate : float array -> period:int -> int -> float array
(** [replicate x ~period n]: [n] slots holding [x] zero-padded (or cut) to
    [period] and repeated, i.e. [x.(i mod period)] when [i mod period] is
    below the length of [x], else [0.0].  One blit per period.  Raises
    [Invalid_argument] unless [period > 0]. *)
