(* The journal is a replay-once view of a Record_log.  See journal.mli
   for the contract and record_log.mli for the format. *)

type t = {
  log : Record_log.t;
  appended : int Atomic.t;
  compactions : int Atomic.t;
}

let open_ ?(sync = false) path =
  (* Only the opening scan is replayed; records reported later (our own
     appends, or another writer's) are not. *)
  let replay = ref [] and opening = ref true in
  let sink =
    {
      Record_log.record =
        (fun key _ value -> if !opening then replay := (key, value) :: !replay);
      reset = (fun () -> replay := []);
    }
  in
  match Record_log.open_ ~sync path sink with
  | Error e -> Error e
  | Ok log ->
      opening := false;
      Ok
        ( { log; appended = Atomic.make 0; compactions = Atomic.make 0 },
          List.rev !replay )

let counted counter result =
  if Result.is_ok result then Atomic.incr counter;
  result

let append t ~key ~value =
  counted t.appended (Record_log.append t.log ~key ~value)

let compact t ~live = counted t.compactions (Record_log.compact t.log ~live)
let appended t = Atomic.get t.appended
let compactions t = Atomic.get t.compactions
let size_bytes t = Record_log.size_bytes t.log
let close t = Record_log.close t.log
