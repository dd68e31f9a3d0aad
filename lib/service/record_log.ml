(* The record log behind Journal and Store.  See record_log.mli for
   the format, the repair policy and the locking.  The lock order is
   always [t.lock], [write_guard], [lockf].  Readers ([refresh],
   [read]) take only [t.lock]: a concurrent writer's half-written
   record merely stops their scan early, and the next look picks it
   up. *)

module E = Dls.Errors

(* Table-driven CRC-32, reflected polynomial 0xEDB88320 (the IEEE
   variant used by gzip/zlib).  Good enough to catch torn writes and
   bit rot; this is an integrity check, not an authenticity one. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc_sub s off len =
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = Int32.of_int (crc_sub s 0 (String.length s))

let payload_crc key value =
  let s = key ^ "\n" ^ value in
  crc_sub s 0 (String.length s)

type entry = { voff : int; vlen : int; crc : int }

type sink = {
  record : string -> entry -> string -> unit;
  reset : unit -> unit;
}

type t = {
  path : string;
  sync : bool;
  sink : sink;
  lock : Mutex.t;
  mutable fd : Unix.file_descr;
  mutable ino : int;
  mutable scanned : int;  (* bytes reported to the sink: the last good boundary *)
  mutable closed : bool;
}

(* POSIX file locks are per (process, inode), so they do not exclude
   two handles in one process; this mutex does. *)
let write_guard = Mutex.create ()

let io_error path e =
  E.Io_error (Printf.sprintf "%s: %s" path (Unix.error_message e))

(* A record's bytes, and its entry were it to start at file offset
   [base]: the value sits just before the closing newline. *)
let render ~base ~key ~value =
  let crc = payload_crc key value and vlen = String.length value in
  let bytes =
    Printf.sprintf "rec %08x %d %d\n%s\n%s\n" crc (String.length key) vlen
      key value
  in
  (bytes, { voff = base + String.length bytes - vlen - 1; vlen; crc })

(* Report the good records of [s] — the file's bytes from offset [base]
   on — to [f] in order, and return the length of the good prefix.
   Boundaries are derived from the lengths in each header, so a single
   bad record makes everything after it unreachable: we stop there by
   design.  The length bounds come first so a huge header length cannot
   overflow the arithmetic. *)
let scan ~base s f =
  let len = String.length s in
  let rec go pos =
    match String.index_from_opt s pos '\n' with
    | None -> pos
    | Some eol -> (
        match String.split_on_char ' ' (String.sub s pos (eol - pos)) with
        | [ "rec"; crc_hex; klen_s; vlen_s ] -> (
            match
              ( int_of_string_opt ("0x" ^ crc_hex),
                int_of_string_opt klen_s,
                int_of_string_opt vlen_s )
            with
            | Some crc, Some klen, Some vlen
              when klen >= 0 && vlen >= 0 && klen < len && vlen < len
                   && eol + klen + vlen + 3 <= len
                   && s.[eol + 1 + klen] = '\n'
                   && s.[eol + klen + vlen + 2] = '\n'
                   && crc land 0xFFFFFFFF = crc_sub s (eol + 1) (klen + 1 + vlen)
              ->
                let voff = eol + klen + 2 in
                f
                  (String.sub s (eol + 1) klen)
                  { voff = base + voff; vlen; crc = crc land 0xFFFFFFFF }
                  (String.sub s voff vlen);
                go (voff + vlen + 1)
            | _ -> pos)
        | _ -> pos)
  in
  go 0

(* Up to [len] bytes from offset [off]; fewer only at end of file. *)
let read_at fd off len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create len in
  let rec fill got =
    if got >= len then got
    else
      match Unix.read fd b got (len - got) with
      | 0 -> got
      | n -> fill (got + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill got
  in
  Bytes.sub_string b 0 (fill 0)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* The helpers below run with [t.lock] held. *)

(* Has another process's compaction renamed a new inode over the path? *)
let swapped t =
  try (Unix.stat t.path).Unix.st_ino <> t.ino with Unix.Unix_error _ -> false

let reopen t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- Unix.openfile t.path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644;
  t.ino <- (Unix.fstat t.fd).Unix.st_ino;
  t.scanned <- 0;
  t.sink.reset ()

(* Report the good records past [t.scanned]; return the file size. *)
let absorb t =
  let size = (Unix.fstat t.fd).Unix.st_size in
  if size > t.scanned then
    t.scanned <-
      t.scanned
      + scan ~base:t.scanned (read_at t.fd t.scanned (size - t.scanned))
          t.sink.record;
  size

(* lockf is relative to the file position, so park at 0 first. *)
let lockf fd cmd =
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  Unix.lockf fd cmd 0

(* Run [f] as the only writer, on a repaired file.  A writer that waited
   on the lock of an inode a compaction has since renamed away reopens,
   which drops that lock, and retries.  Once no writer is mid-append,
   any byte past the last good record is a tear from a crashed writer:
   cut it, or the next record would land beyond it where no scan
   reaches. *)
let as_writer t f =
  Mutex.protect write_guard (fun () ->
      let rec lock tries =
        lockf t.fd Unix.F_LOCK;
        if tries > 0 && swapped t then (reopen t; lock (tries - 1))
      in
      lock 5;
      Fun.protect
        ~finally:(fun () ->
          try lockf t.fd Unix.F_ULOCK with Unix.Unix_error _ -> ())
        (fun () ->
          if absorb t > t.scanned then Unix.ftruncate t.fd t.scanned;
          f ()))

(* Run [f] on an open handle, turning I/O failures into typed errors. *)
let guarded t f =
  Mutex.protect t.lock (fun () ->
      if t.closed then Error (E.Io_error (t.path ^ ": closed"))
      else
        match f () with
        | x -> Ok x
        | exception Unix.Unix_error (e, _, _) -> Error (io_error t.path e))

let close t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (* Closing any descriptor of the inode drops this process's
           lockf on it, which another handle's writer may hold. *)
        Mutex.protect write_guard (fun () ->
            try Unix.close t.fd with Unix.Unix_error _ -> ())
      end)

let open_ ~sync path sink =
  match
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
    (fd, (Unix.fstat fd).Unix.st_ino)
  with
  | exception Unix.Unix_error (e, _, _) -> Error (io_error path e)
  | fd, ino -> (
      let t =
        {
          path;
          sync;
          sink;
          lock = Mutex.create ();
          fd;
          ino;
          scanned = 0;
          closed = false;
        }
      in
      match guarded t (fun () -> as_writer t ignore) with
      | Ok () -> Ok t
      | Error _ as err ->
          close t;
          err)

let refresh t =
  ignore (guarded t (fun () -> if swapped t then reopen t; absorb t))

let read t key e =
  match guarded t (fun () -> read_at t.fd e.voff e.vlen) with
  | Ok value when String.length value = e.vlen && payload_crc key value = e.crc
    ->
      Some value
  | Ok _ | Error _ -> None

let append t ~key ~value =
  if String.contains key '\n' || String.contains value '\n' then
    Error (E.Io_error (t.path ^ ": record contains a newline"))
  else
    guarded t (fun () ->
        as_writer t (fun () ->
            let bytes, entry = render ~base:t.scanned ~key ~value in
            ignore (Unix.lseek t.fd t.scanned Unix.SEEK_SET);
            write_all t.fd bytes;
            if t.sync then Unix.fsync t.fd;
            t.scanned <- t.scanned + String.length bytes;
            t.sink.record key entry value))

let compact t ~live =
  guarded t (fun () ->
      as_writer t (fun () ->
          let before = t.scanned in
          (* Last occurrence per key wins; emit in last-append order,
             which is the order of the value offsets. *)
          let last = Hashtbl.create 64 in
          ignore
            (scan ~base:0 (read_at t.fd 0 before) (fun key e value ->
                 Hashtbl.replace last key (e.voff, value)));
          let kept =
            Hashtbl.fold
              (fun k (i, v) acc -> if live k then (i, k, v) :: acc else acc)
              last []
            |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
          in
          let b = Buffer.create 4096 in
          List.iter
            (fun (_, key, value) ->
              Buffer.add_string b (fst (render ~base:0 ~key ~value)))
            kept;
          let tmp = t.path ^ ".compact" in
          let fd =
            Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
          in
          (try
             write_all fd (Buffer.contents b);
             if t.sync then Unix.fsync fd;
             Unix.rename tmp t.path
           with e ->
             (try Unix.close fd with Unix.Unix_error _ -> ());
             (try Unix.unlink tmp with Unix.Unix_error _ -> ());
             raise e);
          (* Reopening closes the old descriptor, which drops the file
             lock a waiter may be queued on; the waiter then sees the
             new inode and retries. *)
          Unix.close fd;
          reopen t;
          ignore (absorb t);
          (before, Buffer.length b)))

let size_bytes t =
  Result.value ~default:0 (guarded t (fun () -> (Unix.fstat t.fd).Unix.st_size))
