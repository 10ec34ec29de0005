(** In-place iterative radix-2 complex FFT used by the CKKS canonical
    embedding ([Encoding]), unboxed: a vector is a pair of [float array]s
    holding its real and imaginary parts. *)

type plan
(** The twiddle tables of one power-of-two size, both directions. *)

val plan : int -> plan

val fft : plan -> float array -> float array -> unit
(** Forward DFT of [(re, im)], in place:
    [a'.(k) = sum_j a.(j) * exp(-2 pi i jk / n)]. *)

val ifft : plan -> float array -> float array -> unit
(** Inverse DFT, in place, including the [1/n] normalization. *)
