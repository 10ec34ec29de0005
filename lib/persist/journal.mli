(** Write-ahead checkpoint journal: one file per entry, atomically appended.

    A journal directory contains files named
    [entry-<seq>-v<loop_var>-i<iter>.ckpt], each a single
    {!Codec.Entry_frame} stamped with the run's manifest fingerprint.
    Appends go through {!Store.save} (tmp + rename + fsync), so a
    crash mid-append leaves at most a stray [*.tmp.*] that scans ignore —
    the journal never contains a half-written entry under a real name.

    Retention is per loop variable: after each append, all but the newest
    [retain] entries for that loop are unlinked.  Sequence numbers are
    monotone and continue across resumes ({!open_} scans the directory for
    the highest existing sequence). *)

type t

val open_ : dir:string -> fingerprint:int64 -> retain:int -> t
(** Creates [dir] if needed; scans it so the next append continues the
    sequence.  [retain < 1] is an [Invalid_argument]. *)

val append : t -> ct:'ct Codec.artifact -> 'ct Codec.entry -> int * int
(** Durably append one entry (the entry's [seq] is assigned by the journal,
    overriding the field) and prune old entries for the same loop.  Returns
    [(seq, bytes)] — the assigned sequence number and the entry's on-disk
    size. *)

type 'ct scan = {
  entries : 'ct Codec.entry list;  (** intact entries, newest first *)
  damaged : (string * string) list;
      (** files discarded by validation: [(filename, reason)] *)
}

val scan : dir:string -> fingerprint:int64 -> ct:'ct Codec.artifact -> 'ct scan
(** Validate every entry in the journal.  Truncated, bit-flipped,
    wrong-version, wrong-fingerprint or otherwise malformed files are
    reported in [damaged] and excluded — a corrupt tail never aborts
    recovery, it just falls back to the previous intact entry.  Temporary
    files ([*.tmp.*]) are ignored entirely. *)

val newest_for : 'ct scan -> loop_var:int -> 'ct Codec.entry option
(** The intact entry with the highest sequence number for the given loop
    variable, if any. *)
