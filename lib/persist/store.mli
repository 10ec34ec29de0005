(** Durable artifact store: atomic file writes, and one save/load pair for
    every {!Codec.artifact} kind.

    {2 Atomicity protocol}

    Every {!save} writes its frame to a [.tmp.<pid>] sibling and [fsync]s
    it, [rename]s it over the destination (atomic within a POSIX
    filesystem), and finally [fsync]s the containing directory so the
    rename itself is durable.  A crash at any point leaves either the old file, no file,
    or a stray [*.tmp.*] that readers ignore — never a half-written
    artifact under the real name. *)

val fsync_dir : string -> unit
(** Flush directory metadata (new names / unlinks) to disk.  Best-effort:
    filesystems that refuse to fsync a directory are ignored. *)

(** {2 Artifacts} *)

val save : ?fingerprint:int64 -> 'a Codec.artifact -> path:string -> 'a -> int
(** Frame one value ({!Codec.to_frame}) and write it atomically (see above);
    returns the frame's size in bytes. *)

val load : ?fingerprint:int64 -> 'a Codec.artifact -> path:string -> 'a
(** {!read_file} and {!Codec.of_frame}: a frame of another kind, version,
    stamp or checksum, a short or overlong payload, or a payload its
    decoder refuses raises {!Halo_error.Persist_error} naming [path]. *)
