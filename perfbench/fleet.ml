(* Workloads [fleet-miss] and [fleet-hot]: the production topology run
   as child processes of the real [dls] binary.  [dls route] fronts two
   [dls serve --jobs 1] shards that share one [--store]; each shard has
   its own [--journal].  The benchmark drives it over at most two
   connections, first as an open loop (Poisson arrivals, each request
   timed from when it was due), then as a closed loop. *)

module P = Service.Protocol
module Client = Service.Client

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)

(* Every child still running; killed and reaped at exit whatever
   happens, so a failed run leaves no process behind. *)
let live = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live)

type proc = { pname : string; pid : int }

let spawn ~dls pname args =
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] in
  let out = Unix.openfile (pname ^ ".out") flags 0o644 in
  let err = Unix.openfile (pname ^ ".err") flags 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process dls (Array.of_list (dls :: args)) null out err in
  List.iter Unix.close [ out; err; null ];
  live := pid :: !live;
  { pname; pid }

let stop p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap p.pid

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Socket paths are relative and fixed: shard addresses are the ring's
   identities, so pinning them makes key placement, and the shard
   split, repeat from run to run. *)
let shard_sock i = Printf.sprintf "./shard%d.sock" i
let router_sock = "./router.sock"
let addr path = Service.Server.Unix_socket path

let healthy path =
  match Client.connect (addr path) with
  | Error _ -> false
  | Ok c ->
    let r = Client.request ~deadline_s:2. c P.Health in
    Client.close c;
    (match r with Ok (P.Ok_health h) -> h.P.healthy | _ -> false)

let wait_healthy ~deadline path =
  while not (healthy path) do
    if Util.now () > deadline then failwith ("no healthy answer from " ^ path);
    Unix.sleepf 0.0002
  done

let shard_args i =
  [ "serve"; "--socket"; shard_sock i; "--jobs"; "1"; "--store"; "store.db"; "--journal";
    Printf.sprintf "journal%d.log" i; "--stats-json" ]

let start_shard ~dls i = spawn ~dls (Printf.sprintf "shard%d" i) (shard_args i)

type fleet = { shards : proc array; router : proc }

(* Launch both shards and the router and wait until all three answer
   [health]. *)
let launch ~dls =
  let t0 = Util.now () in
  let shards = Array.init 2 (start_shard ~dls) in
  let router =
    spawn ~dls "router"
      [ "route"; "--socket"; router_sock; "--shard"; shard_sock 0; "--shard"; shard_sock 1 ]
  in
  let deadline = t0 +. 60. in
  Array.iteri (fun i _ -> wait_healthy ~deadline (shard_sock i)) shards;
  wait_healthy ~deadline router_sock;
  { shards; router }

(* The router first, so its shutdown line counts every request it
   forwarded; then both shards at once. *)
let stop_fleet f =
  stop f.router;
  Array.iter (fun p -> try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ()) f.shards;
  Array.iter (fun p -> reap p.pid) f.shards

(* A shard's counters, with a few tries: a stats request sent right
   after a closed loop has been seen to fail once, transiently. *)
let shard_stats i =
  let rec go tries =
    match Client.with_client (addr (shard_sock i)) (fun c -> Client.request ~deadline_s:10. c P.Stats) with
    | Ok (Ok (P.Ok_stats s)) -> s
    | _ when tries > 1 ->
      Unix.sleepf 0.1;
      go (tries - 1)
    | _ -> failwith (Printf.sprintf "no stats from shard %d" i)
  in
  go 5

(* User and system CPU seconds (all threads) a child has used so far,
   from /proc/PID/stat (fields 14 and 15, in clock ticks of 1/100 s). *)
let proc_cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let stat = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let i = String.rindex stat ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub stat i (String.length stat - i))) in
  let ticks k = float_of_int (int_of_string f.(k)) /. 100. in
  (ticks 11, ticks 12)

(* Summed over both shards and the router. *)
let fleet_cpu_s f =
  Array.fold_left
    (fun (u, s) p ->
      let u', s' = proc_cpu_s p.pid in
      (u +. u', s +. s'))
    (0., 0.)
    (Array.append f.shards [| f.router |])

(* Speed probes taken on a second domain every 50 ms while [f ()] runs,
   so the fleet's CPU time can be scaled to the reference speed like the
   in-process solves.  A probe costs about 2 ms of one core. *)
let with_speed_probes f =
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        let probes = Util.Vec.create () in
        while not (Atomic.get stop) do
          Util.Vec.push probes (Util.speed_probe ());
          Unix.sleepf 0.05
        done;
        Util.Vec.to_array probes)
  in
  let r = Fun.protect ~finally:(fun () -> Atomic.set stop true) f in
  (r, Domain.join d)

(* The [dls route] shutdown line:
   [requests=N routed=[a;b] failovers=N unavailable=N local=N ...]. *)
let router_line () =
  let lines = String.split_on_char '\n' (read_file "router.out") in
  match List.find_opt (fun l -> String.length l > 9 && String.sub l 0 9 = "requests=") lines with
  | None -> failwith "router printed no shutdown line"
  | Some l ->
    Scanf.sscanf l "requests=%d routed=[%[0-9;]] failovers=%d unavailable=%d"
      (fun _ routed failovers unavailable ->
        let routed = List.map int_of_string (String.split_on_char ';' routed) in
        (routed, failovers, unavailable))

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)

type record = {
  idx : int;  (* index into the phase's request lines *)
  due : float;  (* when the open loop scheduled it (send time when closed) *)
  lag : float;  (* how late it was sent once a connection was free *)
  sent : float;
  recv : float;
  reply : (string, Client.transport_error) result;
}

(* Drive [conns] connections to [path].  [next ()] (called under a lock)
   yields the next request index and, in an open loop, its due time. *)
let drive path ~conns ~next ~line_of =
  let m = Mutex.create () in
  let outs = Array.init conns (fun _ -> Util.Vec.create ()) in
  let worker k =
    let conn = ref (Result.to_option (Client.connect (addr path))) in
    let rec loop () =
      Mutex.lock m;
      let item = next () in
      Mutex.unlock m;
      match item with
      | None -> ()
      | Some (i, due) ->
        let free = Util.now () in
        let due =
          match due with
          | None -> free
          | Some d ->
            if d > free then Unix.sleepf (d -. free);
            d
        in
        let sent = Util.now () in
        let reply =
          Span.with_ ~req:(i + 1) "client.request_line" (fun _ ->
              if !conn = None then conn := Result.to_option (Client.connect (addr path));
              match !conn with
              | None -> Error `Closed
              | Some c -> Client.request_line ~deadline_s:30. c (line_of i))
        in
        let recv = Util.now () in
        (match (reply, !conn) with
        | Error _, Some c ->
          Client.close c;
          conn := None
        | _ -> ());
        Util.Vec.push outs.(k) { idx = i; due; lag = sent -. Float.max due free; sent; recv; reply };
        loop ()
    in
    loop ();
    Option.iter Client.close !conn
  in
  let threads = List.init conns (fun k -> Thread.create worker k) in
  List.iter Thread.join threads;
  Array.concat (Array.to_list (Array.map Util.Vec.to_array outs))

let conns = 2

(* Open loop: request [i] is due [offsets.(i)] after the start. *)
let open_loop path ~offsets ~line_of =
  let start = Util.now () +. 0.05 in
  let n = Array.length offsets and k = ref 0 in
  let next () =
    if !k >= n then None
    else begin
      let i = !k in
      incr k;
      Some (i, Some (start +. offsets.(i)))
    end
  in
  drive path ~conns ~next ~line_of

(* Closed loop: each connection sends its next request as soon as the
   previous one is answered, until [seconds] have passed or [n] requests
   were sent. *)
let closed_loop path ~seconds ~n ~line_of =
  let deadline = Util.now () +. seconds and k = ref 0 in
  let next () =
    if !k >= n || Util.now () >= deadline then None
    else begin
      let i = !k in
      incr k;
      Some (i, None)
    end
  in
  let t0 = Util.now () in
  let records = drive path ~conns ~next ~line_of in
  (records, Util.now () -. t0)

(* A reply is ok when it parses to an [ok ...] response; transport
   errors and [error], [overloaded], [shed], [timeout] answers fail. *)
let ok_reply r =
  match r.reply with
  | Error _ -> false
  | Ok line -> (match P.parse_response line with Ok resp -> P.is_ok resp | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Counters exported by the shards                                     *)

let stats_delta (a : P.stats_rep) (b : P.stats_rep) f = f b - f a

let sum_delta before after f =
  let t = ref 0 in
  Array.iteri (fun i b -> t := !t + stats_delta b after.(i) f) before;
  !t

let server_metrics ~before ~after =
  let m = Util.metric in
  let d f = sum_delta before after f in
  let c f = float_of_int (d f) in
  let open P in
  let accepted = d (fun s -> s.accepted) in
  let max_of f = Array.fold_left (fun a s -> max a (f s)) 0 after in
  [ m "server.cache_hit_ratio" "ratio" (Util.ratio (d (fun s -> s.warm_hits + s.store_hits)) accepted);
    m "server.warm_hits" "count" (c (fun s -> s.warm_hits));
    m "server.collapsed" "count" (c (fun s -> s.collapsed));
    m "server.batch_mean" "count" (Util.ratio accepted (d (fun s -> s.batches)));
    m "server.repair_win_ratio" "ratio" (Util.ratio (d (fun s -> s.repair_wins)) (d (fun s -> s.repair_probes)));
    m "server.steals" "count" (c (fun s -> s.steals));
    m "server.shed" "count" (c (fun s -> s.shed));
    m "server.rejected" "count" (c (fun s -> s.rejected));
    m "server.failed" "count" (c (fun s -> s.failed));
    m "server.hangups" "count" (c (fun s -> s.hangups));
    m "server.p50_us" "us" (float_of_int (max_of (fun s -> s.p50_us)));
    m "server.p99_us" "us" (float_of_int (max_of (fun s -> s.p99_us)));
    m "store.hit_ratio" "ratio"
      (Util.ratio (d (fun s -> s.store_hits)) (d (fun s -> s.store_hits + s.store_misses)));
    m "store.demoted" "count" (c (fun s -> s.store_demoted));
    m "journal.appended" "count" (c (fun s -> s.journal_appended));
    m "journal.replayed" "count" (float_of_int (Array.fold_left (fun a s -> a + s.journal_replayed) 0 after)) ]

(* ------------------------------------------------------------------ *)
(* Store and journal, timed on copies of the run's files               *)

let store_journal_metrics ~keys =
  let m = Util.metric in
  let n_add = 200 in
  let fresh i = (Printf.sprintf "perfbench-probe-%d" i, "ok check valid=true violations=0") in
  let opens f = Util.median (Array.init 5 (fun _ -> snd (Util.time f))) *. 1e3 in
  Util.copy_file "store.db" "store-copy.db";
  let store_open_ms =
    opens (fun () -> Service.Store.close (Result.get_ok (Service.Store.open_ "store-copy.db")))
  in
  let store = Result.get_ok (Service.Store.open_ "store-copy.db") in
  let find_us =
    Util.median (Array.map (fun k -> snd (Util.time (fun () -> Service.Store.find store k)) *. 1e6) keys)
  in
  let add_us =
    Util.median
      (Array.init n_add (fun i ->
           let key, value = fresh i in
           snd (Util.time (fun () -> Service.Store.add store ~key ~value)) *. 1e6))
  in
  Service.Store.close store;
  Util.copy_file "journal0.log" "journal-copy.log";
  let journal_open_ms =
    opens (fun () -> Service.Journal.close (fst (Result.get_ok (Service.Journal.open_ "journal-copy.log"))))
  in
  let journal, _ = Result.get_ok (Service.Journal.open_ "journal-copy.log") in
  let append_us =
    Util.median
      (Array.init n_add (fun i ->
           let key, value = fresh i in
           snd (Util.time (fun () -> Service.Journal.append journal ~key ~value)) *. 1e6))
  in
  Service.Journal.close journal;
  [ m "store.open_ms" "ms" store_open_ms; m ~n:(Array.length keys) "store.find_us" "us" find_us;
    m ~n:n_add "store.add_us" "us" add_us; m "journal.open_ms" "ms" journal_open_ms;
    m ~n:n_add "journal.append_us" "us" append_us ]

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)

type spec = {
  dls : string;  (* the [dls] binary, absolute *)
  seed : int;
  seconds : float;
  rate : float;  (* open-loop arrivals per second *)
  limit_ms : float;  (* open-loop latency limit behind [slo_ratio] *)
  hot : bool;  (* [fleet-hot] when set, else [fleet-miss] *)
}

(* Requests in the [fleet-hot] working set: inside the 4096-entry tier-1
   cache of one shard, which the preparation pass fills with all of it. *)
let working_set = 3000
let zipf_s = 1.0
let setups = 21

(* Rates and tails that a burst of host noise in one part of a run does
   not dominate: split timestamped samples [(t, v)], [t] in seconds from
   the phase start, into consecutive windows of [len] seconds, apply
   [stat] to each window holding at least [min_n] samples, and take the
   median.  With no such window, [stat] applies to all samples. *)
let window_stats ~len ~min_n stat xs =
  let k = Array.fold_left (fun a (t, _) -> max a (int_of_float (t /. len))) 0 xs + 1 in
  let buckets = Array.init k (fun _ -> Util.Vec.create ()) in
  Array.iter (fun (t, v) -> Util.Vec.push buckets.(int_of_float (t /. len)) v) xs;
  let full = List.filter (fun w -> Array.length w >= min_n) (List.map Util.Vec.to_array (Array.to_list buckets)) in
  let ws = if full = [] then [ Array.map snd xs ] else full in
  Array.of_list (List.map stat ws)

let window_median ~len ~min_n stat xs = Util.median (window_stats ~len ~min_n stat xs)

(* The shard the router sends a request line to: the router's own ring
   over the pinned shard names. *)
let ring = Service.Ring.create ~vnodes:128 (Array.init 2 (fun i -> "unix:" ^ shard_sock i))
let parse = Lp_layer.parse
let owner line = Service.Ring.lookup ring (P.request_key (parse line))

(* Order the working set so that Zipf ranks alternate between the two
   shards: the hot head, and so the shard split, is the same for every
   seed. *)
let interleave_owners ws =
  let mine k = List.filter (fun l -> owner l = k) (Array.to_list ws) in
  let rec merge a b =
    match (a, b) with
    | x :: a, y :: b -> x :: y :: merge a b
    | rest, [] | [], rest -> rest
  in
  Array.of_list (merge (mine 0) (mine 1))

type result = {
  metrics : Util.metric list;  (* the gated end-to-end metrics *)
  service : Util.metric list;  (* wall-clock throughput and latency *)
  per_layer : Util.metric list;  (* traced runs only *)
  attempted : int;
  failed : int;
  digest : string;
  window_p99_ms : float array;  (* open-loop p99 of each window *)
  window_rps : float array;  (* closed-loop rate of each window *)
  lag_ms : float array;  (* generator lag of every open-loop request *)
  behind_s : float;  (* how late the last open-loop request was sent *)
  speed_ms : float;  (* median speed probe during the open loop *)
  open_lat_ms : float array;  (* latency of every ok open-loop request *)
}

(* Closed-loop requests per second of [closed_s].  The count is fixed,
   not the time, so a seed always drives the same requests (and the same
   LPs into the check).  In a calm host phase at this commit the closed
   loop took about 5 s on fleet-miss and 2.5 s on fleet-hot. *)
let closed_rate ~hot = if hot then 8000. else 1000.

(* Inputs.  fleet-miss: one stream of never-repeated requests, split
   into the open and the closed phase.  fleet-hot: a working set and Zipf
   ranks over it. *)
let inputs spec ~n_open ~closed_s =
  let n_closed = int_of_float (closed_rate ~hot:spec.hot *. closed_s) in
  let st = Corpus.stream ~seed:spec.seed in
  let lines_of reqs = Array.map P.request_to_string reqs in
  if spec.hot then begin
    let ws = interleave_owners (lines_of (Corpus.take st working_set)) in
    let ranks n = Array.map (fun r -> ws.(r)) (Corpus.zipf ~seed:spec.seed ~n:working_set ~s:zipf_s n) in
    (ws, ranks n_open, ranks n_closed)
  end
  else begin
    let o = lines_of (Corpus.take st n_open) in
    ([||], o, lines_of (Corpus.take st n_closed))
  end

(* fleet-hot preparation, untimed: one shard alone solves the whole
   working set, filling the store and its journal. *)
let prepare_hot ~dls ws =
  let s0 = start_shard ~dls 0 in
  wait_healthy ~deadline:(Util.now () +. 60.) (shard_sock 0);
  let recs, _ = closed_loop (shard_sock 0) ~seconds:infinity ~n:(Array.length ws) ~line_of:(fun i -> ws.(i)) in
  stop s0;
  if not (Array.for_all ok_reply recs) then failwith "fleet-hot preparation pass failed"

(* Launch the fleet [setups] times, stopping each, then once more to
   keep it up; returns the fleet and every stopped launch's set-up cost:
   the CPU time the three processes spent from start, through boot
   (journal replay, store index) to answering [health], and their
   shutdown, at the reference speed.  CPU time, unlike the wall time to
   [health], leaves out how the host happened to schedule three
   processes starting at once on two cores: that wall time moved by 40 %
   between runs of one seed. *)
let launches ~dls =
  let cost () = snd (Util.at_reference_speed Util.children_cpu_now (fun () -> stop_fleet (launch ~dls))) in
  let samples = Array.init setups (fun _ -> cost ()) in
  (launch ~dls, samples)

(* Correctness: every ok reply, byte for byte, against an in-process
   exact solve (or evaluation) of the same request, outside the timed
   region.  [replies] maps each request line to its distinct replies
   and their counts.  The exact and fast solves of the distinct LPs,
   under a {!Lp_layer.meter}, give the workload's [exact_ms]/[fast_ms];
   returns those samples and the number of mismatching replies. *)
let check ~replies distinct =
  let meter = Lp_layer.meter () in
  let mismatches = ref 0 in
  Gc.compact ();
  Array.iteri
    (fun i line ->
      let r = parse line in
      let expected =
        if Lp_layer.is_solve r then P.response_to_string (Lp_layer.response_of r (Lp_layer.measure meter ~req:(i + 1) r))
        else P.response_to_string (Lp_layer.eval ~mode:`Exact r)
      in
      List.iter (fun (got, n) -> if got <> expected then mismatches := !mismatches + n) (Hashtbl.find replies line))
    distinct;
  let samples = Lp_layer.scaled_samples meter in
  Array.iter (fun s -> if not s.Lp_layer.ok then incr mismatches) samples;
  (samples, !mismatches)

(* The traced run's per-layer metrics that need the fleet up: request
   evaluation, protocol, direct and routed round trips, tracing overhead
   and the shards' counters. *)
let live_layers ~samples ~distinct ~replies ~rtt_s ~stats0 ~stats2 =
  let m = Util.metric in
  let requests = Array.map parse distinct in
  let lp_metrics = Lp_layer.layer_metrics samples requests in
  (* The evaluator's library calls, in the mode a shard would pick, on a
     cold LP cache, against the client round trips. *)
  Dls.Lp_model.reset_cache ();
  let eval_times = Array.map (fun r -> (r, snd (Util.time (fun () -> Lp_layer.eval ~mode:`Daemon r)))) requests in
  let eval_us pred =
    let xs = List.filter_map (fun (r, t) -> if pred r then Some (t *. 1e6) else None) (Array.to_list eval_times) in
    if xs = [] then 0. else Util.median (Array.of_list xs)
  in
  let eval_share = Util.sum (Array.map snd eval_times) /. rtt_s in
  (* Round trips straight to the owning shard and through the router,
     alternating, on the same (by now cached) requests. *)
  let probe = Array.sub distinct 0 (min 1000 (Array.length distinct)) in
  let direct_c = Array.init 2 (fun i -> Result.get_ok (Client.connect (addr (shard_sock i)))) in
  let router_c = Result.get_ok (Client.connect (addr router_sock)) in
  let rtt name c line = snd (Util.time (fun () -> Span.with_ ~req:0 name (fun _ -> Client.request_line c line))) *. 1e6 in
  let pairs =
    Array.map
      (fun line ->
        let d = rtt "client.shard_rtt" direct_c.(owner line) line in
        (d, rtt "client.router_rtt" router_c line))
      probe
  in
  let direct = Array.map fst pairs and routed = Array.map snd pairs in
  Array.iter Client.close direct_c;
  Client.close router_c;
  (* Tracing overhead: rounds of the same cached requests through the
     router, alternately untraced and traced. *)
  let overhead_pct =
    let round traced =
      Span.enabled := traced;
      snd (Util.time (fun () -> closed_loop router_sock ~seconds:infinity ~n:(Array.length probe) ~line_of:(Array.get probe)))
    in
    let off = ref 0. and on = ref 0. in
    for _ = 1 to 5 do
      off := !off +. round false;
      on := !on +. round true
    done;
    ((!on /. !off) -. 1.) *. 100.
  in
  let n = Array.length direct in
  lp_metrics
  @ [ m "eval.solve_us" "us" (eval_us Lp_layer.is_solve);
      m "eval.simulate_us" "us" (eval_us (function P.Simulate _ -> true | _ -> false));
      m "eval.share" "ratio" eval_share ]
  @ Lp_layer.protocol_metrics ~lines:distinct ~replies:(Array.map (fun l -> fst (List.hd (Hashtbl.find replies l))) distinct)
  @ [ m ~n "client.shard_rtt_us.p50" "us" (Util.median direct);
      m ~n "client.shard_rtt_us.p99" "us" (Util.percentile 0.99 direct);
      m ~n "router.hop_us" "us" (Util.median routed -. Util.median direct);
      m "trace.overhead_pct" "%" overhead_pct ]
  @ server_metrics ~before:stats0 ~after:stats2

let run spec =
  let traced = !Span.enabled in
  (* The closed loop is short: every request it sends is checked by an
     in-process exact solve afterwards, and that check bounds the run's
     length. *)
  let closed_s = Float.min 2.5 (0.25 *. spec.seconds) in
  let open_s = spec.seconds -. closed_s in
  let n_open = max 1 (int_of_float (spec.rate *. open_s)) in
  let ws, open_lines, closed_lines = inputs spec ~n_open ~closed_s in
  let digest = Util.digest_lines (Array.to_list (Array.concat [ ws; open_lines; closed_lines ])) in
  let offsets = Corpus.arrivals ~seed:spec.seed ~rate:spec.rate n_open in
  if spec.hot then prepare_hot ~dls:spec.dls ws;
  let fleet, setup_samples = launches ~dls:spec.dls in
  (* The timed phases. *)
  let stats0 = Array.init 2 shard_stats in
  let cpu0 = fleet_cpu_s fleet in
  let open_recs, open_probes =
    with_speed_probes (fun () -> open_loop router_sock ~offsets ~line_of:(Array.get open_lines))
  in
  let user_s, sys_s =
    let (u0, s0), (u1, s1) = (cpu0, fleet_cpu_s fleet) in
    (u1 -. u0, s1 -. s0)
  in
  (* Peak memory after the open loop, whose request count is fixed; the
     closed loop's count follows the machine's speed. *)
  let rss_mb = Util.sum (Array.map (fun p -> Util.vm_hwm_mb p.pid) (Array.append fleet.shards [| fleet.router |])) in
  let closed_start = Util.now () in
  let closed_recs, closed_wall =
    closed_loop router_sock ~seconds:infinity ~n:(Array.length closed_lines) ~line_of:(Array.get closed_lines)
  in
  let stats2 = Array.init 2 shard_stats in
  (* Everything below is outside the timed region.  First reduce the
     records to what the metrics need, so the in-process check below
     solves against a small live heap whatever the request count. *)
  let ok_open = Array.of_list (List.filter ok_reply (Array.to_list open_recs)) in
  let ok_closed = List.filter ok_reply (Array.to_list closed_recs) in
  let n_ok_open = Array.length ok_open and n_ok_closed = List.length ok_closed in
  let lat_ms = Array.map (fun r -> (r.recv -. r.due) *. 1e3) ok_open in
  let within = Array.fold_left (fun a l -> if l <= spec.limit_ms then a + 1 else a) 0 lat_ms in
  let attempted = Array.length open_recs + Array.length closed_recs in
  (* Each request line's distinct ok replies, with their counts. *)
  let replies = Hashtbl.create 4096 in
  let note lines r =
    match r.reply with
    | Ok reply when ok_reply r ->
      let line = lines.(r.idx) in
      let seen = Option.value ~default:[] (Hashtbl.find_opt replies line) in
      let n = Option.value ~default:0 (List.assoc_opt reply seen) in
      Hashtbl.replace replies line ((reply, n + 1) :: List.remove_assoc reply seen)
    | _ -> ()
  in
  Array.iter (note open_lines) open_recs;
  Array.iter (note closed_lines) closed_recs;
  let distinct = Array.of_list (List.sort compare (Hashtbl.fold (fun l _ acc -> l :: acc) replies [])) in
  (* Tails per window of at least 1000 requests (ten beyond p99), then
     the median over windows; throughput per half second of the closed
     loop, then the median. *)
  let lat_window = Float.max 1. (1000. /. spec.rate) in
  let first_due = Array.fold_left (fun a r -> Float.min a r.due) infinity open_recs in
  let timed_lat = Array.map (fun r -> (r.due -. first_due, (r.recv -. r.due) *. 1e3)) ok_open in
  let window_p99_ms = window_stats ~len:lat_window ~min_n:1000 (Util.percentile 0.99) timed_lat in
  let lat_p50_ms = window_median ~len:lat_window ~min_n:1000 (Util.percentile 0.5) timed_lat in
  let rate_window = 0.5 in
  let whole = Float.of_int (int_of_float (closed_wall /. rate_window)) *. rate_window in
  let window_rps =
    window_stats ~len:rate_window ~min_n:1
      (fun w -> float_of_int (Array.length w) /. rate_window)
      (Array.of_list
         (List.filter_map
            (fun r ->
              let t = r.recv -. closed_start in
              if t < whole then Some (t, ()) else None)
            ok_closed))
  in
  let lag_ms = Array.map (fun r -> r.lag *. 1e3) open_recs in
  let n_open = Array.length open_recs in
  let behind_s = Array.fold_left (fun a r -> if r.idx = n_open - 1 then r.sent -. r.due else a) 0. open_recs in
  let rtt_s =
    Util.sum (Array.map (fun r -> r.recv -. r.sent) open_recs) +. Util.sum (Array.map (fun r -> r.recv -. r.sent) closed_recs)
  in
  let samples, mismatches = check ~replies distinct in
  let failed = attempted - n_ok_open - n_ok_closed + mismatches in
  let m = Util.metric in
  let ms f = Array.map (fun s -> f s *. 1e3) samples in
  let exact_ms = ms (fun s -> s.Lp_layer.exact_s) and fast_ms = ms (fun s -> s.Lp_layer.fast_s) in
  let n_s = Array.length samples and n_lat = Array.length lat_ms in
  let metrics =
    [ m ~n:n_s "exact_ms.p50" "ms" (Util.median exact_ms);
      m ~n:n_s "exact_ms.p95" "ms" (Util.percentile 0.95 exact_ms);
      m ~n:n_s "fast_ms.p50" "ms" (Util.median fast_ms);
      m ~n:n_s "fast_ms.p95" "ms" (Util.percentile 0.95 fast_ms);
      m ~n:n_ok_open "cpu_us_per_req" "us"
        (user_s /. float_of_int n_ok_open *. 1e6 *. (Util.reference_probe_s /. Util.median open_probes));
      m ~n:n_open "slo_ratio" "ratio" (Util.ratio within n_open);
      m ~n:setups "setup_s" "s" (Util.median setup_samples);
      m "rss_mb" "MB" rss_mb ]
  in
  let service =
    [ m ~n:n_ok_closed "rps" "1/s" (Util.median window_rps);
      m ~n:n_lat "lat_ms.p50" "ms" lat_p50_ms;
      m ~n:n_lat "lat_ms.p99" "ms" (Util.median window_p99_ms);
      m ~n:n_ok_open "fleet.sys_us_per_req" "us" (sys_s /. float_of_int n_ok_open *. 1e6) ]
  in
  let live = if traced then live_layers ~samples ~distinct ~replies ~rtt_s ~stats0 ~stats2 else [] in
  stop_fleet fleet;
  let per_layer =
    if not traced then []
    else begin
      let routed, failovers, unavailable = router_line () in
      live
      @ [ m "router.failovers" "count" (float_of_int failovers);
          m "router.unavailable" "count" (float_of_int unavailable);
          m "router.shard_split" "ratio" (Util.ratio (List.fold_left min max_int routed) (List.fold_left ( + ) 0 routed)) ]
      @ store_journal_metrics ~keys:(Array.map (fun l -> P.request_key (parse l)) distinct)
      @ [ m ~n:(Array.length lag_ms) "gen.lag_ms.p99" "ms" (Util.percentile 0.99 lag_ms);
          m "gen.lag_ms.max" "ms" (Array.fold_left Float.max 0. lag_ms) ]
    end
  in
  { metrics; service; per_layer; attempted; failed; digest; window_p99_ms; window_rps; lag_ms; behind_s;
    speed_ms = Util.median open_probes *. 1e3; open_lat_ms = lat_ms }
