type t = {
  dir : string;
  fingerprint : int64;
  retain : int;
  mutable next_seq : int;
}

let entry_name ~seq ~loop_var ~iter =
  Printf.sprintf "entry-%010d-v%d-i%d.ckpt" seq loop_var iter

(* [entry-<seq>-v<loop_var>-i<iter>.ckpt] -> (seq, loop_var, iter) *)
let parse_name name =
  if Filename.check_suffix name ".ckpt" then
    try Scanf.sscanf name "entry-%d-v%d-i%d.ckpt%!" (fun s v i -> Some (s, v, i))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
  else None

let list_entries dirname =
  match Sys.readdir dirname with
  | files ->
    Array.to_list files
    |> List.filter_map (fun f ->
           match parse_name f with Some k -> Some (f, k) | None -> None)
    |> List.sort (fun (_, (s1, _, _)) (_, (s2, _, _)) -> compare s2 s1)
  | exception Sys_error m ->
    Halo_error.persist_error ~path:dirname "unreadable journal directory: %s" m

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_ ~dir ~fingerprint ~retain =
  if retain < 1 then invalid_arg "Journal.open_: retain must be >= 1";
  mkdir_p dir;
  let next_seq =
    List.fold_left
      (fun acc (_, (seq, _, _)) -> max acc (seq + 1))
      0 (list_entries dir)
  in
  { dir; fingerprint; retain; next_seq }

let prune t ~loop_var =
  let for_loop =
    List.filter (fun (_, (_, v, _)) -> v = loop_var) (list_entries t.dir)
  in
  let excess = List.filteri (fun i _ -> i >= t.retain) for_loop in
  if excess <> [] then begin
    List.iter
      (fun (f, _) ->
        try Unix.unlink (Filename.concat t.dir f)
        with Unix.Unix_error _ -> ())
      excess;
    Store.fsync_dir t.dir
  end

let append t ~ct (e : _ Codec.entry) =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let e = { e with Codec.seq } in
  let path =
    Filename.concat t.dir (entry_name ~seq ~loop_var:e.loop_var ~iter:e.iter)
  in
  let bytes = Store.save ~fingerprint:t.fingerprint (Codec.entry ct) ~path e in
  prune t ~loop_var:e.loop_var;
  (seq, bytes)

type 'ct scan = {
  entries : 'ct Codec.entry list;
  damaged : (string * string) list;
}

let scan ~dir ~fingerprint ~ct =
  let entries = ref [] and damaged = ref [] in
  let entry = Codec.entry ct in
  List.iter
    (fun (f, (seq, loop_var, iter)) ->
      match Store.load ~fingerprint entry ~path:(Filename.concat dir f) with
      | e ->
        (* The filename triple is display metadata; the checksummed payload
           is authoritative.  A mismatch means the file was renamed or
           spliced — treat it as damage, not as a valid entry. *)
        if e.Codec.seq <> seq || e.Codec.loop_var <> loop_var || e.Codec.iter <> iter
        then
          damaged :=
            ( f,
              Printf.sprintf
                "filename says seq=%d var=%d iter=%d but payload says seq=%d \
                 var=%d iter=%d"
                seq loop_var iter e.Codec.seq e.Codec.loop_var e.Codec.iter )
            :: !damaged
        else entries := e :: !entries
      | exception (Halo_error.Persist_error _ as exn) ->
        damaged := (f, Halo_error.to_string exn) :: !damaged)
    (List.rev (list_entries dir));
  {
    entries =
      List.sort (fun a b -> compare b.Codec.seq a.Codec.seq) !entries;
    damaged = List.rev !damaged;
  }

let newest_for s ~loop_var =
  List.find_opt (fun e -> e.Codec.loop_var = loop_var) s.entries
