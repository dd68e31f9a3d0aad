(* Buffered deadline-aware line I/O over raw file descriptors.  See
   wire.mli for the contract.  Everything here is exception-free at the
   I/O boundary: Unix errors that mean "peer is gone" become typed
   results, EINTR is always retried, and partial reads/writes loop. *)

module Clock = Parallel.Clock

type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;  (* [buf[0, len)]: received, not yet delivered *)
  mutable len : int;
  mutable scanned : int;  (* prefix of [buf] known to contain no '\n' *)
}

let chunk_size = 4096
let reader fd = { fd; buf = Bytes.create chunk_size; len = 0; scanned = 0 }

type read_result = Line of string | Eof | Eof_mid_line | Deadline

(* Errors that mean the peer hung up or reset; anything else
   unexpected is treated the same way — for a stream socket there is
   no useful distinction for the caller. *)
let closed_errno = function
  | Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.ENOTCONN
  | Unix.EBADF | Unix.ESHUTDOWN ->
      true
  | _ -> false

(* Extract the first complete line from [r.buf], if any.  The scan
   starts at [r.scanned], so no prefix is searched twice (the
   byte-at-a-time case would otherwise be O(n^2)), and only the
   delivered line and the remainder behind it are copied: a long line
   arriving chunk by chunk costs time and allocation linear in its
   length. *)
let take_line r =
  let rec newline i =
    if i >= r.len then None else if Bytes.get r.buf i = '\n' then Some i else newline (i + 1)
  in
  match newline r.scanned with
  | None ->
      r.scanned <- r.len;
      None
  | Some i ->
      let stop = if i > 0 && Bytes.get r.buf (i - 1) = '\r' then i - 1 else i in
      let line = Bytes.sub_string r.buf 0 stop in
      let rest = r.len - i - 1 in
      Bytes.blit r.buf (i + 1) r.buf 0 rest;
      r.len <- rest;
      r.scanned <- 0;
      Some line

(* Room for one more chunk at the end of [r.buf], doubling it. *)
let reserve r =
  if r.len + chunk_size > Bytes.length r.buf then begin
    let grown = Bytes.create (max (2 * Bytes.length r.buf) (r.len + chunk_size)) in
    Bytes.blit r.buf 0 grown 0 r.len;
    r.buf <- grown
  end

(* Wait until [fd] is readable or [until] (monotonic, from Clock.now)
   passes.  [None] = wait forever.  Returns false on timeout. *)
let rec wait_readable fd until =
  let budget =
    match until with
    | None -> -1.0
    | Some t ->
        let left = t -. Clock.now () in
        if left <= 0.0 then 0.0 else left
  in
  match Unix.select [ fd ] [] [] budget with
  | [], _, _ -> (
      match until with
      | Some t when Clock.now () >= t -> false
      | _ -> wait_readable fd until)
  | _ -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd until

let read_line ?deadline_s r =
  let until =
    match deadline_s with None -> None | Some d -> Some (Clock.now () +. d)
  in
  let rec loop () =
    match take_line r with
    | Some line -> Line line
    | None ->
        if not (wait_readable r.fd until) then Deadline
        else begin
          reserve r;
          match Unix.read r.fd r.buf r.len chunk_size with
          | 0 -> if r.len = 0 then Eof else Eof_mid_line
          | n ->
              r.len <- r.len + n;
              loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | exception Unix.Unix_error (e, _, _) when closed_errno e ->
              if r.len = 0 then Eof else Eof_mid_line
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              (* Spurious readiness; go back to waiting. *)
              loop ()
        end
  in
  loop ()

let write_all fd bytes =
  let len = Bytes.length bytes in
  let rec go off =
    if off >= len then Ok ()
    else
      match Unix.write fd bytes off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> Error `Closed
  in
  go 0

let write_line fd s = write_all fd (Bytes.of_string (s ^ "\n"))
let write_bytes fd s = write_all fd (Bytes.of_string s)
