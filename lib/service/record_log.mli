(** The on-disk record log behind {!Journal} and {!Store}: the only
    module that knows the record format or touches the file.  A log is
    a flat file of CRC-checked records, each a canonical request key and
    a rendered response line:

    {v rec <crc32-hex> <klen> <vlen>
<key bytes>
<value bytes>
v}

    The CRC-32 covers [key ^ "\n" ^ value].  A record is accepted only
    if the header parses, both payloads are present in full with their
    terminators, and the checksum matches.  Boundaries are derived from
    the lengths in each header, so a scan stops at the first bad
    record: everything after it is unreachable.

    {b Repair.}  A crash mid-append leaves a partial or corrupt final
    record.  Under the write lock no writer is mid-append, so any byte
    past the last good record is such a tear, and the writer cuts the
    file back to that boundary: at {!open_} and before every {!append}
    and {!compact}.  A torn tail costs at most the records after it,
    and no record lands beyond a tear where no scan would reach it.

    {b Locking.}  Each handle serialises its own operations with a
    mutex.  Writers also take one process-wide mutex — POSIX file locks
    are per (process, inode), so they do not exclude two handles in one
    process — and then an exclusive [lockf].  After locking, a writer
    re-stats the path: if another process compacted (swapping the inode
    by rename), it reopens and retries, so no record is written to an
    unlinked file.  Any number of handles, in any number of processes,
    may share one file. *)

type t

(** Where a record's value lives in the file, with its checksum. *)
type entry

(** Receives every good record a handle scans or appends, in file
    order, as [record key entry value].  [reset ()] comes first whenever
    the file was replaced by a compaction (here or elsewhere): every
    entry seen before it is stale. *)
type sink = {
  record : string -> entry -> string -> unit;
  reset : unit -> unit;
}

(** [open_ ~sync path sink] opens (creating if absent) the log at
    [path], repairs it, and reports its records to [sink], which the
    handle keeps for every later scan and append.  With [~sync:true] every append
    and compaction is followed by [fsync]. *)
val open_ : sync:bool -> string -> sink -> (t, Dls.Errors.t) result

(** Absorb the records other handles appended since the last look by
    scanning only the new tail, reopening first if a compaction swapped
    the inode. *)
val refresh : t -> unit

(** [read t key entry] is the value of [key]'s record at [entry],
    re-verified against its checksum on this very read; [None] if the
    bytes are not (or no longer) that record, or [t] is closed. *)
val read : t -> string -> entry -> string option

(** [append t ~key ~value] repairs the file, then adds one record and
    reports it to the sink.  [key] and [value] must be newline-free. *)
val append : t -> key:string -> value:string -> (unit, Dls.Errors.t) result

(** [compact t ~live] rewrites the log keeping only the latest record of
    every key [live] accepts, in last-append order, via [path ^
    ".compact"] renamed over the log: a crash leaves either the old
    file or the new one.  On failure the temp file is closed and
    removed and the log is unchanged.  Returns
    [(bytes_before, bytes_after)]. *)
val compact : t -> live:(string -> bool) -> (int * int, Dls.Errors.t) result

(** Current file size in bytes (0 after {!close}). *)
val size_bytes : t -> int

val close : t -> unit

(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a string. *)
val crc32 : string -> int32
