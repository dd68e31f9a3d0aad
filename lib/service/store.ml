(* Tier-2 solution store: a key index over a shared Record_log.  See
   store.mli for the contract and record_log.mli for the format. *)

type stats = { hits : int; misses : int; appended : int; compactions : int }

type t = {
  log : Record_log.t;
  lock : Mutex.t;  (* guards the index and the counters *)
  index : (string, Record_log.entry) Hashtbl.t;
  mutable stats : stats;
}

let open_ ?(sync = false) path =
  let index = Hashtbl.create 256 in
  let sink =
    {
      Record_log.record = (fun key entry _ -> Hashtbl.replace index key entry);
      reset = (fun () -> Hashtbl.reset index);
    }
  in
  Result.map
    (fun log ->
      let stats = { hits = 0; misses = 0; appended = 0; compactions = 0 } in
      { log; lock = Mutex.create (); index; stats })
    (Record_log.open_ ~sync path sink)

(* The log reports records to the index through the sink, so every log
   call that may scan runs under [t.lock]. *)
let with_lock t f = Mutex.protect t.lock f

let find t key =
  with_lock t (fun () ->
      Record_log.refresh t.log;
      match Option.bind (Hashtbl.find_opt t.index key) (Record_log.read t.log key) with
      | Some _ as value ->
          t.stats <- { t.stats with hits = t.stats.hits + 1 };
          value
      | None ->
          (* Absent, or unreadable on disk right now — never serve it. *)
          Hashtbl.remove t.index key;
          t.stats <- { t.stats with misses = t.stats.misses + 1 };
          None)

let mem t key =
  with_lock t (fun () ->
      Record_log.refresh t.log;
      Hashtbl.mem t.index key)

let length t = with_lock t (fun () -> Hashtbl.length t.index)
let size_bytes t = Record_log.size_bytes t.log

let add t ~key ~value =
  with_lock t (fun () ->
      Record_log.refresh t.log;
      if Hashtbl.mem t.index key then Ok ()
      else
        let result = Record_log.append t.log ~key ~value in
        if Result.is_ok result then
          t.stats <- { t.stats with appended = t.stats.appended + 1 };
        result)

let compact t ?(live = fun _ -> true) () =
  with_lock t (fun () ->
      let result = Record_log.compact t.log ~live in
      if Result.is_ok result then
        t.stats <- { t.stats with compactions = t.stats.compactions + 1 };
      result)

let stats t = with_lock t (fun () -> t.stats)

(* A closed store indexes nothing, so it finds nothing. *)
let close t =
  with_lock t (fun () ->
      Record_log.close t.log;
      Hashtbl.reset t.index)
