(** A persistent pool of OCaml 5 domains for the per-limb loops of the RNS
    kernel layer.  RNS limbs are independent, so the loops it runs are
    embarrassingly parallel: every index writes disjoint state and results
    are bit-identical for any pool size.

    The pool size is [HALO_DOMAINS] when set (must be a positive integer),
    otherwise [min 8 (Domain.recommended_domain_count ())].  Size 1 spawns
    no domains at all and runs everything in the caller -- the exact
    sequential semantics of the pre-pool code.  Workers are spawned lazily
    on the first parallel call and joined at exit. *)

val size : unit -> int
(** The pool size in effect (memoized; reads [HALO_DOMAINS] once). *)

val sequentially : (unit -> 'a) -> 'a
(** [sequentially f] runs [f ()] with every [parallel_for] it reaches
    degraded to a plain sequential loop, regardless of the pool size.
    Results are bit-identical to parallel execution (the pool's contract);
    tests use this to check exactly that without re-spawning processes. *)

val parallel_for : n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f 0 .. f (n-1)], spread across the pool when
    it has more than one worker.  The caller participates in the work, so
    progress never depends on worker scheduling.  [f] must write only
    index-private state.  The first exception raised by any [f i] is
    re-raised in the caller after all workers have quiesced on the job;
    the remaining indices are claimed and skipped (not run), the job
    reference is released (no closure leak), and the pool remains fully
    usable for subsequent calls.  Calls from a worker domain (inside a
    pool job) degrade to a plain sequential loop.  A call from the calling
    domain while it drains a job of its own (a nested job) is posted like
    any other: the caller drains it itself, so it completes even while
    every worker is busy with the outer job, and the outer job's remaining
    indices run on whichever domains are still draining it. *)
