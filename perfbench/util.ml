(* Timing, order statistics, process probes and JSON output shared by
   the workloads. *)

let now = Parallel.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds (user + system) of this process.  In-process solves are
   single-threaded and compute-bound, so their CPU time is their cost;
   unlike wall time it leaves out the time the host ran something else. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds (user + system) of this process's terminated and reaped
   children, from [getrusage]. *)
let children_cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

let cpu_time f =
  let t0 = cpu_now () in
  let r = f () in
  (r, cpu_now () -. t0)

(* Nearest-rank percentile of an unsorted sample; [nan] when empty. *)
let percentile q xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

let median xs = percentile 0.5 xs
let sum xs = Array.fold_left ( +. ) 0. xs
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* [tail_ok q n]: at least ten of [n] samples lie beyond the [q]
   percentile. *)
let tail_ok q n = float_of_int n *. (1. -. q) >= 10.

(* A growable array; the workloads append samples from one thread at a
   time (callers lock when they share one). *)
module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (max 16 (2 * v.n)) x in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
  let length v = v.n
  let get v i = if i < v.n then v.a.(i) else invalid_arg "Vec.get"
  let clear v = v.n <- 0

end

(* A fixed integer loop, timed on the wall clock: the machine-speed
   probe reported as [env.calib_ms].  The best of five runs filters
   single scheduler blips; what remains is how busy the host is. *)
let calib_ms () =
  let once () =
    let t0 = now () in
    let x = ref 1 in
    for i = 1 to 20_000_000 do
      x := (!x * 1103515245) + i land 0xffff
    done;
    ignore (Sys.opaque_identity !x);
    (now () -. t0) *. 1e3
  in
  List.fold_left min infinity (List.init 5 (fun _ -> once ()))

(* The speed reference.  A shared VM's speed moves by up to 2x, in
   phases of seconds to minutes: the shared caches and memory of a VM's
   vCPU are also used by other guests.  A fixed integer loop barely
   notices; allocation-heavy code, the solvers included, slows down with
   it.  [speed_probe ()] is the CPU seconds of a fixed allocating loop
   (lists built, sorted and hashed; about 2 ms), written here so no
   change to the program can move it.  A CPU time measured next to
   probes is scaled by [reference_probe_s /. probe]: it then reads in
   milliseconds of a machine on which the probe takes exactly
   [reference_probe_s], whatever phase the host was in. *)
let speed_probe () =
  let t0 = cpu_now () in
  let h = Hashtbl.create 64 in
  let acc = ref 0 in
  for r = 1 to 8 do
    let l = List.init 2000 (fun i -> ((i * 7919) + r) land 0xfff) in
    let l = List.sort compare l in
    List.iter (fun x -> Hashtbl.replace h (x land 255) x) l;
    acc := !acc + List.length l + Hashtbl.length h
  done;
  ignore (Sys.opaque_identity !acc);
  cpu_now () -. t0

(* About the probe's median CPU time on the two-vCPU VM this benchmark
   was defined on (it read 1.0-3.4 ms there); any fixed value would do. *)
let reference_probe_s = 0.002

(* [f ()] and its cost on [clock] (CPU or wall seconds), scaled to the
   reference speed by probes on either side. *)
let at_reference_speed clock f =
  let p0 = speed_probe () in
  let t0 = clock () in
  let r = f () in
  let t = clock () -. t0 in
  let p1 = speed_probe () in
  (r, t *. reference_probe_s /. ((p0 +. p1) /. 2.))

(* Peak resident set ([VmHWM]) of a live process, in MB. *)
let vm_hwm_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let copy_file src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

(* Order-sensitive digest of the generated inputs, printed so two runs
   can show they drove identical streams. *)
let digest_lines lines =
  let ctx = Buffer.create 4096 in
  List.iter
    (fun l ->
      Buffer.add_string ctx l;
      Buffer.add_char ctx '\n')
    lines;
  Digest.to_hex (Digest.string (Buffer.contents ctx))

(* One reported metric: name, value, unit and the sample count behind
   it (0 for counts and ratios of counts). *)
type metric = { name : string; value : float; unit : string; n : int }

let metric ?(n = 0) name unit value = { name; value; unit; n }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_json ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.name)
              (json_float m.value) (json_string m.unit))
          metrics))
