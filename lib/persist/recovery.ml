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
    (* Frame length per loop variable.  Every entry field is fixed-width
       for a given loop — its carried values keep their kinds and slot
       counts, and every stats field is fixed-width — so one probe encode
       per loop variable gives the size every later entry's snapshot must
       already count. *)
    let sizes = Hashtbl.create 4 in
    let sink ~loop_var ~index values =
      if (index + 1) mod every_n = 0 then begin
        let snap = Stats.create () in
        Stats.assign ~into:snap stats;
        let key = var_key loop_var in
        let entry =
          {
            Codec.seq = 0 (* assigned by the journal *);
            loop_var = key;
            iter = index;
            carried = List.map carried_of_value values;
            rng = codec.rng_state ();
            stats = snap;
          }
        in
        let bytes =
          match Hashtbl.find_opt sizes key with
          | Some n -> n
          | None ->
            let n =
              String.length
                (Codec.to_frame ~fingerprint:0L (Codec.entry codec.ct) entry)
            in
            Hashtbl.replace sizes key n;
            n
        in
        (* The stored snapshot includes this write's own accounting, so
           restoring it reproduces an uninterrupted run's counters. *)
        Stats.record_checkpoint_write snap ~bytes;
        let _seq, written = Journal.append journal ~ct:codec.ct entry in
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
