(** The exact cleartext semantics as a backend: a ciphertext is its slot
    vector.  No level or scale checks and no noise; [rescale], [modswitch]
    and [bootstrap] are the identity, and [rot_sum] folds
    [coeff ⊙ rot(src)] in term order.  Run through {!Interp} (see
    {!Interp.reference}) it is the single reference that compiler passes
    and noisy executions are compared against, so its float operation order
    is part of the contract.  Every op is a {!Halo_ckks.Slots} kernel, the
    same loops [Halo_ckks.Ref_backend]'s noiseless ops run. *)

include Backend.S with type ct = float array

val create : slots:int -> state
