(** Cross-request slot batching: lane layout, plaintext packing, and the
    rotation epilogue that unpacks every tenant's lane with one hoisted
    key-switch group.

    The batcher follows HECO's observation (PAPERS.md) that FHE throughput
    comes from filling the ciphertext's SIMD slots: a 4096-slot ciphertext
    serving one 32-element request wastes 99% of every bootstrap and key
    switch it pays for.  Packing several tenants' small vectors into
    disjoint {e lanes} of one ciphertext amortizes the whole evaluation
    across them.

    Layout: with lane width [lane] (a power of two), tenant [i]'s vector
    occupies slots [[i*lane, i*lane + size_i)]; the rest of its lane is
    zero.  A program is {e slotwise} when output slot [j] depends only on
    input slot [j] — then evaluating the packed ciphertext once computes
    every lane simultaneously, and each lane's first [size_i] slots equal
    the first [size_i] slots of that tenant's solo run bit-for-bit (on a
    noiseless backend).

    Unpacking reuses the PR 5 machinery: {!wrap} appends one
    {!Halo.Ir.op.RotateMany} per program output with offsets
    [[0; lane; 2*lane; ...]], so all positioning rotations share a single
    digit decomposition (one hoisted group per output, [lanes - 1]
    decompositions saved). *)

type layout = {
  slots : int;  (** ciphertext slot count *)
  lane : int;  (** lane width: power of two, [lane * lanes <= slots] *)
  sizes : int array;  (** meaningful elements per lane, each [<= lane] *)
}

val plan : slots:int -> lane:int -> sizes:int list -> layout
(** Validate and build a layout.  Raises [Invalid_argument] when [lane] is
    not a positive power of two, a size exceeds its lane, or the lanes do
    not fit in the slot count. *)

val capacity : slots:int -> lane:int -> int
(** Lanes that fit: [slots / lane]. *)

val pack : layout -> float array list -> float array
(** Place vector [i] at slot offset [i * lane]; all other slots are zero.
    The result has exactly [slots] elements, so the interpreter's input
    replication is the identity on it. *)

val unpack : layout -> index:int -> float array -> float array
(** Slice lane [index] ([sizes.(index)] slots starting at [index * lane])
    out of a packed slot vector — the plaintext mirror of the rotation
    epilogue, used by the packer property tests. *)

val offsets : layout -> int list
(** Positioning rotation offsets, one per lane: [[0; lane; 2*lane; ...]].
    Rotating the packed vector left by [i * lane] brings lane [i] to the
    first slots. *)

val slotwise : Halo.Ir.program -> bool
(** [true] when every operation in the (compiled) program is slot-local:
    no [Rotate]/[RotateMany]/[Pack]/[Unpack] anywhere and every constant a
    [Splat].  Only slotwise programs may share a ciphertext across
    requests; anything else is served one-request-per-ciphertext. *)

val wrap : Halo.Ir.program -> offsets:int list -> Halo.Ir.program
(** The batch-evaluation wrapper: a copy of the traced program whose
    epilogue rotates every original output by each positioning offset
    (one [RotateMany] per output) and yields the rotated copies,
    output-major — wrapper output [j * lanes + i] is original output [j]
    positioned for lane [i].  Compile the result with any strategy;
    rotation fusion keeps the group hoisted. *)
