(** Kill/resume trials of the serving layer: the one harness behind
    [halo_cli soak --serve], [halo_cli chaos] and the serving kill tests. *)

val compare : Server.t -> Server.t -> string list
(** The checks two drained servers fail, by name: ["complete"] (both
    drained, an outcome for every accepted request), ["outputs"]
    ({!Workload.opened}, bit for bit), ["stats"], ["quarantine"],
    ["counters"] ({!Server.counters} but the process-local [rejected_*]),
    ["clock"], ["latencies"], ["undamaged"] (neither discarded a damaged
    journal entry) and ["report"] ({!Server.report}, which also prints
    [rejected_supervised]: a resumed process cannot count the admission
    rejections made before the kill, since those are never journaled). *)

val chaos_failures : max_latency_us:int -> Server.t -> string list
(** The chaos expectations a drained server misses: ["transitions"] (a
    breaker opened, and one closed or reopened), ["converged"] (every
    poisoned tenant is quarantined and, unless rescue is on, nobody else)
    and ["tail"] (no latency above [max_latency_us]). *)

type t = {
  baseline : Server.t;
  resumed : Server.t;
  killed : int option;  (** journal writes at the kill, if it was reached *)
  resumed_pending : int;  (** requests queued by {!Server.open_resume} *)
  failures : string list;  (** [compare baseline resumed] *)
}

val trial :
  cfg:Serve_codec.config ->
  programs:Serve_codec.prog_def list ->
  requests:(int -> Workload.req list) ->
  rounds:int ->
  kill_after:int ->
  dir:string ->
  t
(** Each round [r] submits [requests r] (dropping rejections) and drains.
    The baseline serves every round in memory, without a journal.  The
    killed run serves them journaled under [dir] with [kill_after], saving
    the progress frame [chaos.halo] after each round's submission.  It is
    then always reopened with {!Server.open_resume}, finishes the
    interrupted round and submits the rounds the progress frame says are
    left. *)
