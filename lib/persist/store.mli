(** Durable artifact store: atomic file writes, and one save/load pair for
    every {!Codec.artifact} kind.

    {2 Atomicity protocol}

    Every write goes through {!write_file}: the frame is written to a
    [.tmp.<pid>] sibling, the temporary file's data is [fsync]ed, the file
    is [rename]d over the destination (atomic within a POSIX filesystem),
    and finally the containing directory is [fsync]ed so the rename itself
    is durable.  A crash at any point leaves either the old file, no file,
    or a stray [*.tmp.*] that readers ignore — never a half-written
    artifact under the real name. *)

val write_file : string -> string -> unit
(** [write_file path bytes] durably and atomically replaces [path]. *)

val read_file : string -> string
(** Raises {!Halo_error.Persist_error} when the file is missing or
    unreadable. *)

val fsync_dir : string -> unit
(** Flush directory metadata (new names / unlinks) to disk.  Best-effort:
    filesystems that refuse to fsync a directory are ignored. *)

(** {2 Artifacts} *)

val save : ?fingerprint:int64 -> 'a Codec.artifact -> path:string -> 'a -> int
(** Frame one value ({!Codec.to_frame}) and {!write_file} it; returns the
    frame's size in bytes. *)

val load : ?fingerprint:int64 -> 'a Codec.artifact -> path:string -> 'a
(** {!read_file} and {!Codec.of_frame}: a frame of another kind, version,
    stamp or checksum, a short or overlong payload, or a payload its
    decoder refuses raises {!Halo_error.Persist_error} naming [path]. *)
