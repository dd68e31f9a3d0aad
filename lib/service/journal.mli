(** Crash-safe append-only journal of canonical-key → response records.

    The daemon's warm state — the LRU of canonical request keys to
    rendered responses — used to live only in memory, so a restart
    served every request cold.  A journal makes that state durable the
    cheapest way possible: every freshly computed record is appended to
    a flat file, and on boot {!open_} replays whatever prefix of the
    file survives into the cache.

    The file is a {!Record_log}: see [record_log.mli] for the record
    format, the truncated-tail repair and the locking.  A torn tail
    costs at most the records after it, never the journal. *)

type t

(** [open_ ?sync path] opens (creating if absent) the journal at
    [path], replays its valid prefix, truncates any bad tail, and
    returns the handle plus the replayed [(key, value)] pairs in append
    order — oldest first, so feeding them to an LRU in order leaves the
    most recently appended records also most recently used.  With
    [~sync:true] (default [false]) every {!append} is followed by
    [fsync]. *)
val open_ : ?sync:bool -> string -> (t * (string * string) list, Dls.Errors.t) result

(** [append t ~key ~value] durably adds one record.  [key] and [value]
    must be newline-free (canonical protocol lines are).  Serialised
    internally; safe to call from several threads. *)
val append : t -> key:string -> value:string -> (unit, Dls.Errors.t) result

(** Number of records appended through this handle (excludes replay). *)
val appended : t -> int

(** Current journal size in bytes (0 after {!close}). *)
val size_bytes : t -> int

(** [compact t ~live] rewrites the journal, keeping only the {e
    latest} record of every key that [live] accepts — superseded
    appends and keys the caller no longer cares about (evicted cache
    entries) are dropped.  Kept records stay in last-append order, so a
    replay reproduces the same LRU recency.  The rewrite goes to a
    sibling temp file renamed over the journal: a crash mid-compaction
    leaves either the old journal or the new one, never a torn mix.
    Serialised against {!append} internally.  Returns
    [(bytes_before, bytes_after)]. *)
val compact : t -> live:(string -> bool) -> (int * int, Dls.Errors.t) result

(** Number of {!compact} runs completed through this handle. *)
val compactions : t -> int

val close : t -> unit
