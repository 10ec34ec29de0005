(** Persistable autotuned strategy manifests.

    A plan records the argmin configuration {!Tuner} found for one source
    program under one set of bindings, stamped with a {!fingerprint} over
    the canonical program encoding plus the sorted bindings.  Loading with
    a pinned fingerprint refuses — via {!Halo_error.Persist_error}, like every
    other frame-validation failure — a manifest tuned for a different
    program or different bindings, so a stale plan can never silently steer
    compilation of the wrong workload. *)

open Halo

type t = {
  p_prog : string;  (** display name of the tuned program *)
  p_fingerprint : int64;  (** stamp the frame was written under *)
  p_strategy : Strategy.t;
  p_knobs : Strategy.knobs;
  p_key_budget : int;  (** resident switching-key bytes; 0 = unbounded *)
  p_pool : int;  (** domain pool size *)
  p_profile : string;  (** cost-model machine profile the plan was priced under *)
  p_predicted_us : float;
  p_breakdown : (string * float) list;  (** labelled cost components, μs *)
}

val fingerprint : bindings:(string * int) list -> Ir.program -> int64
(** Deterministic stamp over the canonical encoding of [p] and the sorted
    [bindings]. *)

val artifact : t Halo_persist.Codec.artifact
(** A {!Halo_persist.Codec.Tune_manifest_frame} stamped with
    [p_fingerprint], which a load restores from the stamp.
    [Store.load ~fingerprint:fp artifact] also requires the stamp to equal
    [fp] (the fingerprint of the program + bindings about to be compiled);
    a mismatch raises {!Halo_error.Persist_error} naming expected vs got.
    Without [fingerprint] any valid manifest loads. *)

val to_string : t -> string

val retarget :
  knobs:Strategy.knobs ->
  t ->
  Halo_serve.Serve_codec.prog_def list ->
  (Halo_serve.Serve_codec.prog_def list * string list, string) result
(** Apply a plan to a serve registry: every program whose traced form
    carries the plan's fingerprint (under no bindings) moves to the plan's
    strategy; the names moved come back with the registry, and none moving
    is not an error.  [knobs] are the ones the server compiles every
    program under ({!Halo_serve.Server.knobs}); a serve manifest has no
    room for any other, so a plan whose knobs differ is refused with
    [Error] naming each differing knob. *)
