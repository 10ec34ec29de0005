module Stats = Halo_runtime.Stats

module Make (B : Halo_runtime.Backend.S) = struct
  module R = Halo_runtime.Resilient.Make (B)
  module I = R.I

  type ct_codec = {
    ct : B.ct Codec.artifact;
    rng_state : unit -> Random.State.t;
    set_rng_state : Random.State.t -> unit;
  }

  let carried_of_value = function
    | I.Plain a -> Codec.Plain a
    | I.Cipher c -> Codec.Cipher c

  let value_of_carried = function
    | Codec.Plain a -> I.Plain a
    | Codec.Cipher c -> I.Cipher c

  (* Loops without a result variable cannot occur in checkpointed programs
     (every [For] yields), but the hook type allows [None]; key them apart
     from any real SSA variable. *)
  let var_key = function Some v -> v | None -> -1

  let checkpoint_hooks ~codec ~journal ~every_n ~stats ~resume =
    if every_n < 1 then invalid_arg "Recovery.checkpoint_hooks: every_n < 1";
    let sink ~loop_var ~index values =
      if (index + 1) mod every_n = 0 then begin
        (* The snapshot stored with the entry must already include this
           write's accounting, so that restoring it reproduces the counters
           of an uninterrupted run.  Every stats field is fixed-width, so
           the frame length does not depend on the counter values: encode
           once to learn the size, then encode the final snapshot. *)
        let snap = Stats.create () in
        Stats.assign ~into:snap stats;
        Stats.record_checkpoint_write snap ~bytes:0;
        let entry rng =
          {
            Codec.seq = 0 (* assigned by the journal *);
            loop_var = var_key loop_var;
            iter = index;
            carried = List.map carried_of_value values;
            rng;
            stats = snap;
          }
        in
        let rng = codec.rng_state () in
        let bytes =
          String.length
            (Codec.to_frame ~fingerprint:0L (Codec.entry codec.ct) (entry rng))
        in
        snap.Stats.checkpoint_bytes <- stats.Stats.checkpoint_bytes + bytes;
        let _seq, written = Journal.append journal ~ct:codec.ct (entry rng) in
        assert (written = bytes);
        Stats.record_checkpoint_write stats ~bytes
      end
    in
    let consumed = Hashtbl.create 4 in
    let entry ~loop_var ~count =
      match resume with
      | None -> None
      | Some scan ->
        let key = var_key loop_var in
        if Hashtbl.mem consumed key then None
        else begin
          Hashtbl.replace consumed key ();
          match Journal.newest_for scan ~loop_var:key with
          | Some e when e.Codec.iter < count ->
            codec.set_rng_state e.Codec.rng;
            Stats.assign ~into:stats e.Codec.stats;
            Some (e.Codec.iter + 1, List.map value_of_carried e.Codec.carried)
          | Some _ | None -> None
        end
    in
    { R.sink; entry }
end
