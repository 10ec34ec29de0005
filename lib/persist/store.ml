let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write_file path bytes =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  (try
     let fd =
       Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
     in
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () ->
         let n = String.length bytes in
         let written = Unix.write_substring fd bytes 0 n in
         if written <> n then
           Halo_error.persist_error ~path:tmp
             ~expected:(string_of_int n) ~got:(string_of_int written)
             "short write";
         Unix.fsync fd);
     Unix.rename tmp path
   with Unix.Unix_error (e, _, _) ->
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     Halo_error.persist_error ~path "write failed: %s" (Unix.error_message e));
  fsync_dir (Filename.dirname path)

let read_file path =
  try
    let ic = In_channel.open_bin path in
    Fun.protect
      ~finally:(fun () -> In_channel.close ic)
      (fun () -> In_channel.input_all ic)
  with Sys_error m -> Halo_error.persist_error ~path "unreadable file: %s" m

let save ?fingerprint a ~path v =
  let frame = Codec.to_frame ?fingerprint a v in
  write_file path frame;
  String.length frame

let load ?fingerprint a ~path =
  Codec.of_frame ~path ?fingerprint a (read_file path)
