(** Shared persistent solution store — cache tier 2.

    Tier 1 is each shard's in-memory response LRU; this module is the
    tier below it: one {!Record_log} of canonical request key →
    rendered response line that {e every} shard of a fleet opens,
    consults on an LRU miss before solving, and appends freshly
    computed solutions to.  Because keys are canonical request lines
    and evaluations are pure, a record written by one shard is the
    bit-identical answer any other shard would have computed — so a
    solution computed once, anywhere, is a disk read everywhere else,
    across shard restarts and ring reshapes.

    The format, locking, torn-tail repair and compaction are the log's
    (see [record_log.mli]).  The store adds an in-memory index from key
    to record position, refreshed from the log's new tail before every
    probe so other handles' appends and compactions — including other
    processes' — show up.  A key already indexed is {e not} re-appended:
    the store holds one record per key modulo races, and duplicate
    records are harmless (last wins in every reader).  A torn or
    corrupt record is never served: the scan stops at the first bad
    record, and {!find} re-checks the CRC on every read. *)

type t

type stats = {
  hits : int;  (** {!find} probes that returned a record *)
  misses : int;  (** {!find} probes that found nothing *)
  appended : int;  (** records appended through this handle *)
  compactions : int;  (** {!compact} runs through this handle *)
}

(** [open_ ?sync path] opens (creating if absent) the store, indexes
    its valid record prefix and truncates any bad tail.  With [~sync:true] (default false) every
    {!add} is followed by [fsync]. *)
val open_ : ?sync:bool -> string -> (t, Dls.Errors.t) result

(** [find t key] is the stored response line for [key], or [None].
    Absorbs other writers' appends (and compactions) first; the
    returned value was CRC-verified on this very read. *)
val find : t -> string -> string option

(** [add t ~key ~value] makes [key → value] durable unless the key is
    already stored.  [key] and [value] must be newline-free.  Like every
    append to the log, it first truncates any torn tail left by a
    crashed writer. *)
val add : t -> key:string -> value:string -> (unit, Dls.Errors.t) result

(** [mem t key] probes the index without reading or counting. *)
val mem : t -> string -> bool

(** Number of distinct keys indexed. *)
val length : t -> int

val size_bytes : t -> int

(** [compact t ()] rewrites the store keeping the latest record of
    every key [live] accepts (default: keep all keys — compaction then
    only drops superseded duplicates and any torn tail).  Returns
    [(bytes_before, bytes_after)]. *)
val compact :
  t -> ?live:(string -> bool) -> unit -> (int * int, Dls.Errors.t) result

val stats : t -> stats
val close : t -> unit
