(** Built-in serving programs and seeded simulated traffic, shared by
    [halo_cli serve], the serving soak, the serving bench and the test
    suite.

    The three programs cover the serving-relevant program shapes:

    - ["affine"] — [a*x + b] with scalar constants: depth-1, slotwise,
      always batchable;
    - ["poly"] — a degree-4 polynomial on [x]: deeper multiplicative
      chain, still slotwise and batchable;
    - ["iterate"] — a loop with one carried ciphertext applying a
      contractive update [0.5*y + 0.25*x] per iteration: slotwise but
      loop-bearing, so batched serving amortizes the loop's per-iteration
      bootstraps across every packed tenant;
    - ["mean"] — {!Halo.Dsl.mean_slots} over the input: {e not} slotwise
      (rotations cross lane boundaries), so the planner must serve it
      one-request-per-ciphertext.  Exists to exercise the solo path.

    Traffic generation is a pure function of the seed: request [k] of
    client [c] always targets the same program with the same vector, so
    baseline and crash/resume runs submit byte-identical workloads. *)

val programs :
  slots:int -> max_level:int -> iters:int -> Serve_codec.prog_def list
(** All four programs at the given geometry; ["iterate"] runs [iters]
    iterations (static count — serving programs are self-contained). *)

type req = {
  w_tenant : Tenant.t;
  w_program : string;
  w_payload : (string * float array) list;
  w_tol : float;
}

val requests :
  ?mix:string list ->
  seed:int ->
  clients:int ->
  per_client:int ->
  lane:int ->
  unit ->
  req list
(** Simulated traffic: [clients * per_client] requests in arrival order,
    interleaved round-robin across clients (client 0 request 0, client 1
    request 0, ..., client 0 request 1, ...).  Client [c] is tenant [c]
    with {!Tenant.default_key_seed}.  Programs cycle through [mix]
    (default the three batchable ones, ["affine"; "poly"; "iterate"]);
    vector sizes are seeded-random in [[1, lane]] with ragged tails, values
    in [[-1, 1]].  Pure in [seed]. *)

val opened :
  Server.t ->
  (int * (int * int * float array list, Server.failure) result) list
(** {!Server.results} with every served request's outputs opened under
    its tenant's {!Tenant.default_key_seed} key — the keys the simulated
    clients hold: [(request id, Ok (batch key, lanes, outputs))] or the
    failure. *)
