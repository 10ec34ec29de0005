(** Primitive binary fields: fixed-width little-endian writers over
    [Buffer.t] and a bounds-checked reader that raises
    {!Halo_error.Persist_error} — with path and byte offset — on any short
    read or absurd length, so a truncated or corrupt artifact can never
    allocate garbage or decode silently wrong. *)

(** {2 Writers} *)

val u8 : Buffer.t -> int -> unit
val i64 : Buffer.t -> int -> unit
(** OCaml [int], sign-extended to 8 bytes. *)

val f64 : Buffer.t -> float -> unit
(** IEEE-754 bits; round-trips NaNs and signed zeros bit-exactly. *)

val str : Buffer.t -> string -> unit
(** Length-prefixed bytes. *)

val int_array : Buffer.t -> int array -> unit
val float_array : Buffer.t -> float array -> unit
val list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

val bool : Buffer.t -> bool -> unit
(** One byte: 0 or 1. *)

val option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
(** A {!bool} presence flag, then the value when present. *)

(** {2 Reader} *)

type reader = {
  src : string;
  path : string option;  (** carried into every error *)
  base : int;  (** offset of [src]'s first byte within the file *)
  version : int;
      (** container format version the payload was written under; codecs
          consult it to skip fields absent from older formats.  Readers
          built without an explicit version default to newest. *)
  stamp : int64;
      (** fingerprint stamp of the frame the payload came from; 0 for
          readers built outside a frame *)
  mutable pos : int;
}

val reader :
  ?path:string -> ?base:int -> ?version:int -> ?stamp:int64 -> string -> reader

val fail :
  reader -> ?expected:string -> ?got:string -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Halo_error.Persist_error} at the reader's current offset. *)

(** {2 Field checks}

    A configuration's field checks are written once, against a {!check},
    and run both by its decoder and by the constructor that builds it in
    memory, so no value can be created that its own decoder refuses. *)

type check = ?expected:string -> ?got:string -> string -> unit
(** [check ?expected ?got reason] reports a bad field; it never returns. *)

val check_at : reader -> check
(** {!fail} at the reader's current offset. *)

val check_arg : string -> check
(** [check_arg who] raises [Invalid_argument "who: reason (expected e, got
    g)"]. *)

val checked : (reader -> 'a) -> (check -> 'a -> unit) -> reader -> 'a
(** A decoder followed by its field checks, reported with {!check_at}. *)

val ru8 : reader -> int
val ri64 : reader -> int
val rf64 : reader -> float
val rstr : reader -> string
val rint_array : reader -> int array
val rfloat_array : reader -> float array
val rlist : reader -> (reader -> 'a) -> 'a list

val rbool : reader -> what:string -> bool
(** Fails on any byte but 0 or 1, naming the [what] flag. *)

val roption : reader -> what:string -> (reader -> 'a) -> 'a option
val expect_end : reader -> what:string -> unit
(** Fail unless every byte has been consumed. *)
