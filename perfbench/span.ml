(* In-memory spans recorded by the benchmark around its calls into each
   layer of the program.  Off by default; [--trace 1] turns them on.

   A span has a name, a start and an end, the id of the span that caused
   it (0 for a root) and the id of the request or LP it belongs to, so
   the spans of one request share [req].  Spans are kept in memory and
   written out once, when the run ends. *)

type t = { id : int; parent : int; req : int; name : string; t0 : float; t1 : float }

let enabled = ref false
let spans = Util.Vec.create ()
let next_id = ref 0
let lock = Mutex.create ()

let record s =
  Mutex.lock lock;
  Util.Vec.push spans s;
  Mutex.unlock lock

let fresh_id () =
  Mutex.lock lock;
  incr next_id;
  let id = !next_id in
  Mutex.unlock lock;
  id

(* [with_ ~req ~parent name f] runs [f id] and, when tracing, records
   the span [id] around it.  Untraced, it is one closure call. *)
let with_ ?(parent = 0) ~req name f =
  if not !enabled then f 0
  else begin
    let id = fresh_id () in
    let t0 = Util.now () in
    let r = f id in
    record { id; parent; req; name; t0; t1 = Util.now () };
    r
  end

let all () =
  Mutex.lock lock;
  let a = Util.Vec.to_array spans in
  Mutex.unlock lock;
  a

(* Self time of each span: its duration minus the part of its interval
   that its children cover (children may overlap; their union counts
   once). *)
let self_times () =
  let a = all () in
  let children = Hashtbl.create 1024 in
  Array.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) a;
  Array.map
    (fun s ->
      let kids =
        List.sort compare
          (List.map
             (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
             (Hashtbl.find_all children s.id))
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) kids
      in
      (s, s.t1 -. s.t0 -. covered))
    a

(* Per span name: count, total and self seconds — the layer breakdown
   printed after a traced run. *)
let summary () =
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun (s, self) ->
      let n, total, own =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace tbl s.name (n + 1, total +. (s.t1 -. s.t0), own +. self))
    (self_times ());
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Write every span as one JSON line, times relative to the first. *)
let write path =
  let a = all () in
  let base = Array.fold_left (fun m s -> Float.min m s.t0) infinity a in
  let oc = open_out path in
  Array.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"parent\": %d, \"req\": %d, \"name\": %s, \"start_us\": %.3f, \"end_us\": %.3f}\n"
        s.id s.parent s.req (Util.json_string s.name)
        ((s.t0 -. base) *. 1e6) ((s.t1 -. base) *. 1e6))
    a;
  close_out oc
