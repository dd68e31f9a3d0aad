(* The scheduler-as-a-service subsystem: wire protocol round trips and
   totality, the bounded admission queue, the daemon lifecycle (serve,
   collapse, backpressure, timeout, drain), and the deterministic load
   generator.  Servers bind throwaway Unix sockets under the temp dir;
   everything runs in-process. *)

module Q = Numeric.Rational
module P = Service.Protocol

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let q = Q.of_string

let platform specs =
  Dls.Platform.make_exn
    (List.mapi
       (fun i (c, w, d) ->
         Dls.Platform.worker
           ~name:(Printf.sprintf "P%d" (i + 1))
           ~c:(q c) ~w:(q w) ~d:(q d) ())
       specs)

let p2 () = platform [ ("1", "1", "1/2"); ("1", "2", "1/2") ]
let p3 () = platform [ ("1/2", "1", "1/4"); ("1", "2", "1/2"); ("2", "3", "1") ]

let tmp_socket () =
  let path = Filename.temp_file "dls-service" ".sock" in
  Sys.remove path;
  path

(* ------------------------------------------------------------------ *)
(* Protocol round trips                                                *)
(* ------------------------------------------------------------------ *)

let sample_requests () =
  [
    P.Solve
      {
        s_platform = p2 ();
        s_order = P.Fifo;
        s_model = Dls.Lp_model.One_port;
        s_fast = true;
        s_load = None;
      };
    P.Solve
      {
        s_platform = p3 ();
        s_order = P.Lifo;
        s_model = Dls.Lp_model.Two_port;
        s_fast = false;
        s_load = Some (q "1000");
      };
    P.Simulate
      {
        m_platform = p2 ();
        m_order = P.Fifo;
        m_items = 100;
        m_faults = None;
        m_replan = P.Replan_auto;
      };
    P.Simulate
      {
        m_platform = p3 ();
        m_order = P.Lifo;
        m_items = 50;
        m_faults =
          Some
            (Dls.Faults.make_exn
               [
                 Dls.Faults.Slowdown
                   { worker = 1; factor = q "3/2"; from_ = q "1/4" };
                 Dls.Faults.Crash { worker = 0; at = q "5/8" };
               ]);
        m_replan = P.Replan_policy Dls.Replan.Resolve;
      };
    P.Simulate
      {
        m_platform = p2 ();
        m_order = P.Fifo;
        m_items = 10;
        m_faults =
          Some
            (Dls.Faults.make_exn
               [
                 Dls.Faults.Stall
                   { worker = 1; at = q "1/8"; duration = q "1/2" };
               ]);
        m_replan = P.Replan_none;
      };
    P.Check (p3 ());
    P.Stats;
    P.Health;
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      let line = P.request_to_string r in
      match P.parse_request ~line:1 line with
      | Error e -> Alcotest.failf "%S did not re-parse: %s" line (Dls.Errors.to_string e)
      | Ok r' ->
        (* canonical-form equality: the rendered line is the identity *)
        check_str "canonical line survives" line (P.request_to_string r'))
    (sample_requests ())

let sample_responses () =
  [
    P.Ok_solve
      {
        rho = q "6/11";
        sigma1 = [| 0; 1 |];
        alpha = [| q "4/11"; q "2/11" |];
        idle = [| q "0"; q "0" |];
        makespan = Some (q "550/3");
      };
    P.Ok_solve
      {
        rho = q "1/2";
        sigma1 = [| 2; 0; 1 |];
        alpha = [| q "1/4"; q "1/8"; q "1/8" |];
        idle = [| q "0"; q "1/16"; q "0" |];
        makespan = None;
      };
    P.Ok_simulate
      {
        sim_makespan = 118.;
        lp_makespan = 116.66666666666667;
        sim_valid = true;
        achieved = None;
        achieved_ratio = None;
        replanned = None;
      };
    P.Ok_simulate
      {
        sim_makespan = 1.5;
        lp_makespan = 1.25;
        sim_valid = true;
        achieved = Some 42.;
        achieved_ratio = Some 0.84;
        replanned = Some "margin:1/4";
      };
    P.Ok_check { check_ok = false; violations = 3 };
    P.Ok_stats
      {
        accepted = 10;
        served = 7;
        rejected = 2;
        timed_out = 1;
        failed = 2;
        malformed = 1;
        batches = 4;
        max_batch = 5;
        collapsed = 3;
        cache_hits = 6;
        cache_misses = 4;
        repair_probes = 3;
        repair_wins = 2;
        repair_pivots = 5;
        dispatchers = 4;
        steals = 6;
        shed = 2;
        brownouts = 1;
        hangups = 3;
        warm_hits = 5;
        journal_appended = 9;
        journal_replayed = 4;
        store_hits = 6;
        store_misses = 3;
        store_demoted = 2;
        compactions = 1;
        queue_depth = 0;
        inflight = 0;
        p50_us = 256;
        p90_us = 1024;
        p99_us = 2048;
        max_us = 1843;
        uptime_s = 12.5;
      };
    P.Ok_health
      {
        healthy = true;
        draining = false;
        h_mode = P.Mode_healthy;
        h_uptime_s = 3.25;
        h_queue_depth = 2;
        h_capacity = 64;
        h_workers = 4;
      };
    P.Ok_health
      {
        healthy = false;
        draining = false;
        h_mode = P.Mode_degraded;
        h_uptime_s = 7.5;
        h_queue_depth = 48;
        h_capacity = 64;
        h_workers = 4;
      };
    P.Overloaded { depth = 64; capacity = 64 };
    P.Timed_out { budget = 0.005 };
    P.Shed { wait = 0.75; budget = 0.25 };
    P.Failed Dls.Errors.Unbounded;
    P.Failed Dls.Errors.Infeasible;
    P.Failed (Dls.Errors.Invalid_scenario "load must be positive");
    P.Failed (Dls.Errors.Io_error "server is draining");
    P.Failed
      (Dls.Errors.Parse_error
         { file = None; line = 1; col = 7; msg = "not a rational: \"x\"" });
  ]

let test_response_roundtrip () =
  List.iter
    (fun r ->
      let line = P.response_to_string r in
      match P.parse_response line with
      | Error e -> Alcotest.failf "%S did not re-parse: %s" line (Dls.Errors.to_string e)
      | Ok r' -> check_str "canonical line survives" line (P.response_to_string r'))
    (sample_responses ())

let expect_parse_error ~col input =
  match P.parse_request ~line:3 input with
  | Ok _ -> Alcotest.failf "%S parsed" input
  | Error (Dls.Errors.Parse_error { line; col = c; _ }) ->
    check_int (input ^ ": line") 3 line;
    check_int (input ^ ": col") col c
  | Error e ->
    Alcotest.failf "%S: expected a parse error, got %s" input
      (Dls.Errors.to_string e)

let test_request_error_positions () =
  (* Positions point at the offending token (1-based columns), as in
     the Platform_io/Schedule_io suites. *)
  expect_parse_error ~col:1 "frobnicate 1:1:1";
  expect_parse_error ~col:7 "solve 1:1";
  (* the position lands on the offending rational inside the spec *)
  expect_parse_error ~col:15 "solve 1:1:1,2:x:1";
  expect_parse_error ~col:13 "solve 1:1:1 order=sideways";
  expect_parse_error ~col:13 "solve 1:1:1 load=-3";
  expect_parse_error ~col:13 "solve 1:1:1 banana=7";
  expect_parse_error ~col:16 "simulate 1:1:1 items=0";
  expect_parse_error ~col:16 "simulate 1:1:1 faults=crash:0";
  expect_parse_error ~col:13 "check 1:1:1 extra=1";
  expect_parse_error ~col:7 "stats now";
  expect_parse_error ~col:1 ""

let test_huge_exponent_rejected () =
  (* A decimal exponent costs time quadratic in its size, so a 12-byte
     token from a peer must be refused up front, as the same typed parse
     error as any other bad rational, not computed. *)
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (line, col, token) ->
      match P.parse_request ~line:1 line with
      | Error (Dls.Errors.Parse_error { col = c; msg; _ }) ->
        check_int (line ^ ": col") col c;
        check_str (line ^ ": msg") (Printf.sprintf "not a rational: %S" token) msg
      | Ok _ -> Alcotest.failf "%S parsed" line
      | Error e ->
        Alcotest.failf "%S: expected a parse error, got %s" line (Dls.Errors.to_string e))
    [
      ("solve 1e9999999:1:1", 7, "1e9999999");
      ("solve 1:1:1 load=1e-9999999", 13, "1e-9999999");
    ];
  Alcotest.(check bool) "rejected quickly" true (Unix.gettimeofday () -. t0 < 1.0)

let test_parser_garbage_never_raises () =
  let rng = Random.State.make [| 2026; 8; 6; 5 |] in
  let alphabet =
    "0123456789/-.,:;=#solvecheckstamulathfqropidxyz overloadtimeru\t\"\\"
  in
  let garbage () =
    String.init
      (Random.State.int rng 100)
      (fun _ -> alphabet.[Random.State.int rng (String.length alphabet)])
  in
  for _ = 1 to 1000 do
    let s = garbage () in
    (match P.parse_request ~line:1 s with Ok _ | Error _ -> ());
    match P.parse_response s with Ok _ | Error _ -> ()
  done;
  (* mutations of valid lines must stay total too *)
  let valid =
    List.map P.request_to_string (sample_requests ())
    @ List.map P.response_to_string (sample_responses ())
  in
  List.iter
    (fun line ->
      let n = String.length line in
      for _ = 1 to 50 do
        let s =
          match Random.State.int rng 3 with
          | 0 -> String.sub line 0 (Random.State.int rng (n + 1))
          | 1 ->
            String.mapi
              (fun i ch ->
                if i = Random.State.int rng n then
                  alphabet.[Random.State.int rng (String.length alphabet)]
                else ch)
              line
          | _ ->
            line
            ^ String.init 3 (fun _ ->
                  alphabet.[Random.State.int rng (String.length alphabet)])
        in
        (match P.parse_request ~line:1 s with Ok _ | Error _ -> ());
        match P.parse_response s with Ok _ | Error _ -> ()
      done)
    valid

(* Non-finite floats: the renderer emits the canonical [nan]/[inf]/
   [-inf] spellings (never locale/libc-dependent garbage), and the
   parser rejects them with a typed parse error — a non-finite value on
   the wire can only be an upstream bug, so it must not round-trip
   silently into a client. *)
let test_float_nonfinite () =
  check_str "nan renders canonically" "timeout budget=nan"
    (P.response_to_string (P.Timed_out { budget = Float.nan }));
  check_str "inf renders canonically" "timeout budget=inf"
    (P.response_to_string (P.Timed_out { budget = Float.infinity }));
  check_str "-inf renders canonically" "timeout budget=-inf"
    (P.response_to_string (P.Timed_out { budget = Float.neg_infinity }));
  List.iter
    (fun line ->
      match P.parse_response line with
      | Ok _ -> Alcotest.failf "%S parsed" line
      | Error (Dls.Errors.Parse_error { msg; _ }) ->
        check (line ^ ": typed as non-finite") true
          (String.length msg >= 10 && String.sub msg 0 10 = "non-finite")
      | Error e ->
        Alcotest.failf "%S: expected a parse error, got %s" line
          (Dls.Errors.to_string e))
    [ "timeout budget=nan"; "timeout budget=inf"; "timeout budget=-inf" ];
  (match P.parse_response "timeout budget=banana" with
  | Error (Dls.Errors.Parse_error _) -> ()
  | Ok _ -> Alcotest.fail "garbage float parsed"
  | Error e -> Alcotest.failf "expected a parse error, got %s" (Dls.Errors.to_string e));
  (* finite values still round-trip to the shortest form *)
  check_str "finite float round-trips" "timeout budget=0.25"
    (P.response_to_string (P.Timed_out { budget = 0.25 }))

(* Platform specs: field order is pinned (a reversal regression), blanks
   around separators are tolerated, stray separators are rejected with
   the position of the offending field. *)
let test_platform_spec_hardening () =
  (match P.platform_of_spec ~line:1 ~col:1 "1:2:1/2,2:3:1" with
  | Error e -> Alcotest.failf "spec rejected: %s" (Dls.Errors.to_string e)
  | Ok p ->
    let w0 = Dls.Platform.get p 0 in
    check "worker order pinned" true
      (Q.equal w0.Dls.Platform.c Q.one
      && Q.equal w0.Dls.Platform.w (Q.of_int 2)
      && Q.equal w0.Dls.Platform.d (Q.of_ints 1 2)));
  (match P.platform_of_spec ~line:1 ~col:1 "1:2:1/2 ,\t2:3:1" with
  | Error e -> Alcotest.failf "blanks rejected: %s" (Dls.Errors.to_string e)
  | Ok p ->
    check_str "blanks trimmed, canonical spec" "1:2:1/2,2:3:1"
      (P.platform_to_spec p));
  List.iter
    (fun (spec, expect_col) ->
      match P.platform_of_spec ~line:1 ~col:1 spec with
      | Ok _ -> Alcotest.failf "spec %S: expected a parse error" spec
      | Error (Dls.Errors.Parse_error { col; _ }) ->
        check_int (Printf.sprintf "col of %S" spec) expect_col col
      | Error e ->
        Alcotest.failf "spec %S: %s" spec (Dls.Errors.to_string e))
    [
      ("1:2:1/2,", 9);  (* stray ',' *)
      (",1:2:1/2", 1);
      ("1:2:1/2, ,2:3:1", 10);  (* whitespace-only worker *)
      ("1::1/2", 3);  (* stray ':' *)
      ("1:2:", 5);
      ("1:2", 1);  (* too few fields: blamed on the worker *)
    ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_quantiles () =
  let m = Service.Metrics.create () in
  (* Empty histogram: quantiles are 0, not an invented bucket edge. *)
  let s0 = Service.Metrics.snapshot m ~queue_depth:0 in
  check_int "empty p50" 0 s0.P.p50_us;
  check_int "empty p99" 0 s0.P.p99_us;
  (* Ordinary observations report the covering bucket's upper edge. *)
  Service.Metrics.observe_latency m 3e-6;
  let s1 = Service.Metrics.snapshot m ~queue_depth:0 in
  check_int "3us lands in [2,4)" 4 s1.P.p50_us;
  (* An absurd latency lands in the overflow bucket; the quantile must
     saturate at [max_tracked_us] instead of fabricating 2^40. *)
  let m2 = Service.Metrics.create () in
  Service.Metrics.observe_latency m2 1e7 (* seconds = 1e13 us *);
  let s2 = Service.Metrics.snapshot m2 ~queue_depth:0 in
  check_int "overflow saturates p50" Service.Metrics.max_tracked_us s2.P.p50_us;
  check_int "overflow saturates p99" Service.Metrics.max_tracked_us s2.P.p99_us;
  check "max_us keeps the raw value" true (s2.P.max_us > Service.Metrics.max_tracked_us)

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                       *)
(* ------------------------------------------------------------------ *)

let test_queue_basics () =
  let qq = Service.Queue.create ~capacity:2 in
  check "push 1" true (Service.Queue.try_push qq 1 = Service.Queue.Enqueued);
  check "push 2" true (Service.Queue.try_push qq 2 = Service.Queue.Enqueued);
  check "push 3 overloads" true
    (Service.Queue.try_push qq 3 = Service.Queue.Overloaded);
  check_int "length" 2 (Service.Queue.length qq);
  check "fifo pop" true (Service.Queue.pop qq = Some 1);
  check "fifo pop 2" true (Service.Queue.try_pop qq = Some 2);
  check "empty try_pop" true (Service.Queue.try_pop qq = None);
  Service.Queue.close qq;
  check "push after close" true
    (Service.Queue.try_push qq 4 = Service.Queue.Closed);
  check "pop after close+drain" true (Service.Queue.pop qq = None)

let test_queue_close_drains () =
  let qq = Service.Queue.create ~capacity:8 in
  for i = 1 to 5 do
    ignore (Service.Queue.try_push qq i)
  done;
  Service.Queue.close qq;
  let drained = ref [] in
  let rec go () =
    match Service.Queue.pop qq with
    | Some x -> drained := x :: !drained; go ()
    | None -> ()
  in
  go ();
  check "drained in order" true (List.rev !drained = [ 1; 2; 3; 4; 5 ])

let test_queue_concurrent () =
  (* Producer/consumer threads: every pushed item is popped exactly
     once, blocked consumers wake on close. *)
  let qq = Service.Queue.create ~capacity:16 in
  let producers = 4 and per_producer = 500 in
  let consumed = Array.make (producers * per_producer) 0 in
  let consumer () =
    let rec go () =
      match Service.Queue.pop qq with
      | Some x ->
        consumed.(x) <- consumed.(x) + 1;
        go ()
      | None -> ()
    in
    go ()
  in
  let producer p () =
    for i = 0 to per_producer - 1 do
      let x = (p * per_producer) + i in
      let rec push () =
        match Service.Queue.try_push qq x with
        | Service.Queue.Enqueued -> ()
        | Service.Queue.Overloaded ->
          Thread.yield ();
          push ()
        | Service.Queue.Closed -> Alcotest.fail "closed during production"
      in
      push ()
    done
  in
  let cs = Array.init 3 (fun _ -> Thread.create consumer ()) in
  let ps = Array.init producers (fun p -> Thread.create (producer p) ()) in
  Array.iter Thread.join ps;
  Service.Queue.close qq;
  Array.iter Thread.join cs;
  Array.iteri
    (fun x n -> if n <> 1 then Alcotest.failf "item %d consumed %d times" x n)
    consumed

(* ------------------------------------------------------------------ *)
(* Shards                                                              *)
(* ------------------------------------------------------------------ *)

let test_shards_exactly_once () =
  let shards = 4 and items = 64 in
  let s = Service.Shards.create ~shards ~capacity:256 in
  for i = 0 to items - 1 do
    match Service.Shards.try_push s ~key:(string_of_int i) i with
    | Service.Queue.Enqueued -> ()
    | Service.Queue.Overloaded -> Alcotest.failf "push %d overloaded" i
    | Service.Queue.Closed -> Alcotest.failf "push %d closed" i
  done;
  check_int "total length" items (Service.Shards.length s);
  Service.Shards.close s;
  (match Service.Shards.try_push s ~key:"x" 999 with
  | Service.Queue.Closed -> ()
  | _ -> Alcotest.fail "push after close not rejected");
  let seen = Array.init items (fun _ -> Atomic.make 0) in
  let consumer shard () =
    let rec go () =
      match Service.Shards.pop s ~shard with
      | None -> ()
      | Some (v, _src) ->
        Atomic.incr seen.(v);
        go ()
    in
    go ()
  in
  let ts = Array.init shards (fun i -> Thread.create (consumer i) ()) in
  Array.iter Thread.join ts;
  Array.iteri
    (fun i c ->
      let c = Atomic.get c in
      if c <> 1 then Alcotest.failf "item %d consumed %d times" i c)
    seen;
  check_int "fully drained" 0 (Service.Shards.length s)

let test_shards_steal () =
  let s = Service.Shards.create ~shards:2 ~capacity:8 in
  (* Find keys that land on shard 0, then consume from shard 1 only:
     everything it gets must be a steal. *)
  let key_on_0 =
    let rec find i =
      let k = string_of_int i in
      if Service.Shards.shard_of_key s k = 0 then k else find (i + 1)
    in
    find 0
  in
  for v = 1 to 3 do
    match Service.Shards.try_push s ~key:key_on_0 v with
    | Service.Queue.Enqueued -> ()
    | _ -> Alcotest.fail "push rejected"
  done;
  check_int "all on shard 0" 3 (Service.Shards.shard_length s 0);
  check_int "shard 1 empty" 0 (Service.Shards.shard_length s 1);
  (match Service.Shards.pop s ~shard:1 with
  | Some (_, src) -> check_int "claim was a steal from shard 0" 0 src
  | None -> Alcotest.fail "steal found nothing");
  Service.Shards.close s;
  let rec drain n =
    match Service.Shards.pop s ~shard:1 with
    | Some _ -> drain (n + 1)
    | None -> n
  in
  check_int "rest drained after close" 2 (drain 0)

let test_shards_close_wakes_blocked_pop () =
  let s = Service.Shards.create ~shards:2 ~capacity:4 in
  let got = Atomic.make `Pending in
  let t =
    Thread.create
      (fun () ->
        match Service.Shards.pop s ~shard:0 with
        | None -> Atomic.set got `None
        | Some _ -> Atomic.set got `Some)
      ()
  in
  Thread.delay 0.02;
  Service.Shards.close s;
  Thread.join t;
  check "blocked pop unblocked with None" true (Atomic.get got = `None)

(* ------------------------------------------------------------------ *)
(* Server lifecycle                                                    *)
(* ------------------------------------------------------------------ *)

let with_server cfg_of f =
  let path = tmp_socket () in
  let cfg = cfg_of (Service.Server.default_config (Service.Server.Unix_socket path)) in
  match Service.Server.start cfg with
  | Error e -> Alcotest.failf "server start: %s" (Dls.Errors.to_string e)
  | Ok server ->
    let r =
      match f server with
      | v -> v
      | exception exn ->
        Service.Server.stop server;
        raise exn
    in
    Service.Server.stop server;
    check "socket unlinked" false (Sys.file_exists path);
    r

let request_ok client req =
  match Service.Client.request client req with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "request failed: %s" (Dls.Errors.to_string e)

let drain_invariant label (s : P.stats_rep) =
  check_int (label ^ ": inflight 0") 0 s.P.inflight;
  check_int (label ^ ": queue empty") 0 s.P.queue_depth;
  check_int
    (label ^ ": accepted = served + timed_out + failed + shed")
    s.P.accepted
    (s.P.served + s.P.timed_out + s.P.failed + s.P.shed)

let solve_req p =
  P.Solve
    {
      s_platform = p;
      s_order = P.Fifo;
      s_model = Dls.Lp_model.One_port;
      s_fast = true;
      s_load = Some (q "1000");
    }

let test_server_solve_bit_identical () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 2 })
    (fun server ->
      let address = Service.Server.address server in
      let p = p3 () in
      let resp =
        match Service.Client.with_client address (fun cl -> request_ok cl (solve_req p)) with
        | Ok r -> r
        | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e)
      in
      let direct =
        Dls.Solve.solve_exn ~mode:`Exact
          (Dls.Scenario.fifo_exn p (Dls.Fifo.order p))
      in
      match resp with
      | P.Ok_solve r ->
        check_str "rho bit-identical" (Q.to_string direct.Dls.Lp_model.rho)
          (Q.to_string r.P.rho);
        Array.iteri
          (fun i a ->
            check_str
              (Printf.sprintf "alpha.(%d) bit-identical" i)
              (Q.to_string direct.Dls.Lp_model.alpha.(i))
              (Q.to_string a))
          r.P.alpha;
        check_str "makespan = time_for_load"
          (Q.to_string (Dls.Lp_model.time_for_load direct ~load:(q "1000")))
          (Q.to_string (Option.get r.P.makespan))
      | other ->
        Alcotest.failf "expected ok solve, got %s" (P.response_to_string other))

let test_server_single_flight_collapse () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c ->
      {
        c with
        Service.Server.jobs = 2;
        queue_capacity = 32;
        max_batch = 16;
        worker_delay = 0.02;
      })
    (fun server ->
      let address = Service.Server.address server in
      let p = p2 () in
      let clients = 10 in
      let replies = Array.make clients "" in
      let worker i () =
        match
          Service.Client.with_client address (fun cl ->
              P.response_to_string (request_ok cl (solve_req p)))
        with
        | Ok s -> replies.(i) <- s
        | Error e -> Alcotest.failf "client %d: %s" i (Dls.Errors.to_string e)
      in
      let ts = Array.init clients (fun i -> Thread.create (worker i) ()) in
      Array.iter Thread.join ts;
      Array.iter
        (fun s ->
          check_str "all duplicates share the canonical reply" replies.(0) s)
        replies;
      check "reply is ok" true (String.length replies.(0) > 2 && String.sub replies.(0) 0 2 = "ok");
      let s = Service.Server.stats server in
      check_int "all served" clients s.P.served;
      check "batching collapsed duplicates" true (s.P.collapsed >= 1);
      drain_invariant "collapse" s)

let test_server_overload () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c ->
      {
        c with
        Service.Server.jobs = 1;
        queue_capacity = 2;
        max_batch = 1;
        worker_delay = 0.05;
      })
    (fun server ->
      let address = Service.Server.address server in
      let p = p2 () in
      let clients = 12 in
      let outcomes = Array.make clients `Pending in
      let worker i () =
        match
          Service.Client.with_client address (fun cl -> request_ok cl (solve_req p))
        with
        | Ok (P.Overloaded _) -> outcomes.(i) <- `Overloaded
        | Ok r when P.is_ok r -> outcomes.(i) <- `Ok
        | Ok other ->
          Alcotest.failf "client %d: unexpected %s" i (P.response_to_string other)
        | Error e -> Alcotest.failf "client %d: %s" i (Dls.Errors.to_string e)
      in
      let ts = Array.init clients (fun i -> Thread.create (worker i) ()) in
      Array.iter Thread.join ts;
      let count tag = Array.fold_left (fun n o -> if o = tag then n + 1 else n) 0 outcomes in
      let ok = count `Ok and overloaded = count `Overloaded in
      check_int "every client answered" clients (ok + overloaded);
      check "backpressure rejected some" true (overloaded >= 1);
      check "some were served" true (ok >= 1);
      let s = Service.Server.stats server in
      check_int "rejected = overloaded responses" overloaded s.P.rejected;
      check_int "served = ok responses" ok s.P.served;
      drain_invariant "overload" s)

let test_server_timeout () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c ->
      {
        c with
        Service.Server.jobs = 1;
        worker_delay = 0.03;
        timeout = Some 0.005;
      })
    (fun server ->
      let address = Service.Server.address server in
      let outcome =
        Service.Client.with_client address (fun cl ->
            let first = request_ok cl (solve_req (p2 ())) in
            (* the first timeout seeds the admission predictor, so the
               second doomed request is shed instead of queued to die *)
            let second = request_ok cl (solve_req (p3 ())) in
            (first, second))
      in
      (match outcome with
      | Ok (P.Timed_out { budget }, P.Shed { budget = b2; _ }) ->
        check "budget echoed" true (budget = 0.005 && b2 = 0.005)
      | Ok (r1, r2) ->
        Alcotest.failf "expected timeout then shed, got %s / %s"
          (P.response_to_string r1) (P.response_to_string r2)
      | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e));
      let s = Service.Server.stats server in
      check_int "first timed out" 1 s.P.timed_out;
      check_int "second shed" 1 s.P.shed;
      drain_invariant "timeout" s)

let test_server_drain_under_load () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c ->
      {
        c with
        Service.Server.jobs = 2;
        queue_capacity = 32;
        max_batch = 4;
        worker_delay = 0.02;
      })
    (fun server ->
      let address = Service.Server.address server in
      let clients = 8 in
      let answered = Atomic.make 0 in
      let worker i () =
        (* distinct platforms defeat dedup, keeping the queue busy *)
        let p =
          platform
            [ ("1", "1", "1/2"); (Printf.sprintf "%d/7" (i + 1), "2", "1/2") ]
        in
        match
          Service.Client.with_client address (fun cl -> request_ok cl (solve_req p))
        with
        | Ok _ -> Atomic.incr answered
        | Error _ ->
          (* admitted-after-drain connections may be refused: that is a
             clean refusal, not a lost in-flight request *)
          ()
      in
      let ts = Array.init clients (fun i -> Thread.create (worker i) ()) in
      (* let some requests get in flight, then drain concurrently *)
      Thread.delay 0.03;
      Service.Server.stop server;
      Array.iter Thread.join ts;
      let s = Service.Server.stats server in
      drain_invariant "drain" s;
      check "every admitted request was answered" true
        (Atomic.get answered >= s.P.served);
      check "progress before the drain" true (s.P.served >= 1))

let test_server_malformed_and_inline () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 1 })
    (fun server ->
      let address = Service.Server.address server in
      let outcome =
        Service.Client.with_client address (fun cl ->
            let bad =
              match Service.Client.request_raw cl "solve 1:x:1" with
              | Ok (P.Failed (Dls.Errors.Parse_error { col; _ })) -> col
              | Ok other ->
                Alcotest.failf "expected parse error, got %s"
                  (P.response_to_string other)
              | Error e -> Alcotest.failf "transport: %s" (Dls.Errors.to_string e)
            in
            check_int "parse error column" 9 bad;
            (* the connection survives the malformed line *)
            (match request_ok cl P.Health with
            | P.Ok_health h ->
              check "healthy" true h.P.healthy;
              check "not draining" false h.P.draining
            | other ->
              Alcotest.failf "expected health, got %s" (P.response_to_string other));
            match request_ok cl P.Stats with
            | P.Ok_stats s -> s
            | other ->
              Alcotest.failf "expected stats, got %s" (P.response_to_string other))
      in
      match outcome with
      | Ok s ->
        check_int "malformed counted" 1 s.P.malformed;
        check_int "nothing admitted" 0 s.P.accepted
      | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e))

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)
(* ------------------------------------------------------------------ *)

let test_loadgen_deterministic () =
  let render seed =
    Array.init 60 (fun i ->
        P.request_to_string (Service.Loadgen.request ~seed ~distinct:5 i))
  in
  check "same seed, same stream" true (render 7 = render 7);
  check "different seed, different stream" true (render 7 <> render 8);
  (* jobs-invariant mix: the stream touches solve, and the kind of
     request i is independent of who sends it *)
  let kinds =
    Array.to_list (render 7)
    |> List.map (fun line -> List.hd (String.split_on_char ' ' line))
    |> List.sort_uniq compare
  in
  check "solve present" true (List.mem "solve" kinds)

let test_loadgen_against_server () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c ->
      { c with Service.Server.jobs = 2; queue_capacity = 64; max_batch = 16 })
    (fun server ->
      let address = Service.Server.address server in
      match
        Service.Loadgen.run address ~connections:3 ~requests:30 ~seed:1
          ~distinct:5 ()
      with
      | Error e -> Alcotest.failf "loadgen: %s" (Dls.Errors.to_string e)
      | Ok o ->
        check_int "all sent" 30 o.Service.Loadgen.sent;
        check_int "every request answered" 30
          (o.Service.Loadgen.ok + o.Service.Loadgen.overloaded
          + o.Service.Loadgen.timeouts + o.Service.Loadgen.shed
          + o.Service.Loadgen.failed);
        check "mostly ok" true (o.Service.Loadgen.ok >= 25);
        check_int "no failures" 0 o.Service.Loadgen.failed;
        let s = Service.Server.stats server in
        drain_invariant "loadgen" s)

let test_server_multi_dispatcher () =
  (* Four dispatchers over a skewed stream: every request still gets
     exactly one answer and the drain invariant holds; the stats line
     carries the dispatcher count. *)
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c ->
      {
        c with
        Service.Server.jobs = 2;
        dispatchers = 4;
        queue_capacity = 64;
        max_batch = 8;
      })
    (fun server ->
      let address = Service.Server.address server in
      match
        Service.Loadgen.run ~skew:1.2 address ~connections:6 ~requests:60
          ~seed:5 ~distinct:8 ()
      with
      | Error e -> Alcotest.failf "loadgen: %s" (Dls.Errors.to_string e)
      | Ok o ->
        check_int "every request answered" 60
          (o.Service.Loadgen.ok + o.Service.Loadgen.overloaded
          + o.Service.Loadgen.timeouts + o.Service.Loadgen.shed
          + o.Service.Loadgen.failed);
        check_int "no failures" 0 o.Service.Loadgen.failed;
        let s = Service.Server.stats server in
        check_int "stats report the dispatcher count" 4 s.P.dispatchers;
        check "steals counter non-negative" true (s.P.steals >= 0);
        drain_invariant "multi-dispatcher" s)

let test_loadgen_skew () =
  (* Same seed, same skewed stream — request by request. *)
  let stream skew =
    Array.init 120 (fun i ->
        P.request_key (Service.Loadgen.request ~skew ~seed:3 ~distinct:8 i))
  in
  check "skewed stream deterministic" true (stream 1.5 = stream 1.5);
  (* skew = 0 is the classic uniform stream, bit for bit *)
  let classic =
    Array.init 120 (fun i ->
        P.request_key (Service.Loadgen.request ~seed:3 ~distinct:8 i))
  in
  check "skew 0 = classic stream" true (stream 0. = classic);
  (* A strong skew concentrates traffic: the most popular key must take
     a clearly larger share than under the uniform draw. *)
  let top_share keys =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun k ->
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      keys;
    Hashtbl.fold (fun _ n acc -> max n acc) tbl 0
  in
  check "skew concentrates the head" true
    (top_share (stream 2.) > top_share classic)

(* ------------------------------------------------------------------ *)
(* Wire framing                                                        *)
(* ------------------------------------------------------------------ *)

module W = Service.Wire

let test_wire_byte_at_a_time () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = "first line\nsecond\r\nunterminated tail" in
  let writer =
    Thread.create
      (fun () ->
        String.iter
          (fun c ->
            ignore (Unix.write_substring a (String.make 1 c) 0 1);
            Thread.yield ())
          payload;
        Unix.close a)
      ()
  in
  let r = W.reader b in
  (match W.read_line r with
  | W.Line l -> check_str "line reassembled from 1-byte reads" "first line" l
  | _ -> Alcotest.fail "expected first line");
  (match W.read_line r with
  | W.Line l -> check_str "trailing \\r stripped" "second" l
  | _ -> Alcotest.fail "expected second line");
  (match W.read_line r with
  | W.Eof_mid_line -> ()
  | W.Line l -> Alcotest.failf "partial tail delivered as a line: %S" l
  | _ -> Alcotest.fail "expected eof mid-line");
  Thread.join writer;
  Unix.close b

let test_wire_read_deadline () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let r = W.reader b in
  (match W.read_line ~deadline_s:0.02 r with
  | W.Deadline -> ()
  | _ -> Alcotest.fail "expected deadline on a silent peer");
  (* a partial line before the deadline is kept, not delivered *)
  ignore (Unix.write_substring a "par" 0 3);
  (match W.read_line ~deadline_s:0.02 r with
  | W.Deadline -> ()
  | _ -> Alcotest.fail "expected deadline on a partial line");
  ignore (Unix.write_substring a "tial\n" 0 5);
  (match W.read_line r with
  | W.Line l -> check_str "buffered prefix survives the deadline" "partial" l
  | _ -> Alcotest.fail "expected the completed line");
  Unix.close a;
  (match W.read_line r with
  | W.Eof -> ()
  | _ -> Alcotest.fail "expected eof at a line boundary");
  Unix.close b

(* A 1 MiB line arrives in some 256 reads: reassembling it must cost
   allocation linear in its length, not a copy of the buffered prefix
   per read. *)
let test_wire_long_line () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let size = 1 lsl 20 in
  let payload = Bytes.init (size + 1) (fun i -> if i = size then '\n' else Char.chr (97 + (i mod 26))) in
  let writer =
    Thread.create
      (fun () ->
        let rec go off =
          if off < Bytes.length payload then
            go (off + Unix.write a payload off (Bytes.length payload - off))
        in
        go 0)
      ()
  in
  let r = W.reader b in
  let before = Gc.allocated_bytes () in
  let got = W.read_line r in
  let allocated = Gc.allocated_bytes () -. before in
  Thread.join writer;
  (match got with
  | W.Line l ->
    Alcotest.(check bool) "1 MiB line intact" true (l = Bytes.sub_string payload 0 size)
  | _ -> Alcotest.fail "expected the long line");
  if allocated >= 8.0 *. 1024.0 *. 1024.0 then
    Alcotest.failf "reading a 1 MiB line allocated %.1f MiB" (allocated /. 1048576.0);
  Unix.close a;
  Unix.close b

let test_wire_lines_in_one_write () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let batch = "one\ntwo\r\nthree\n" in
  ignore (Unix.write_substring a batch 0 (String.length batch));
  let r = W.reader b in
  List.iter
    (fun want ->
      match W.read_line ~deadline_s:1.0 r with
      | W.Line l -> check_str "lines in order" want l
      | _ -> Alcotest.failf "expected line %S" want)
    [ "one"; "two"; "three" ];
  Unix.close a;
  (match W.read_line r with
  | W.Eof -> ()
  | _ -> Alcotest.fail "expected eof at a line boundary");
  Unix.close b

let test_server_kill_mid_line () =
  (* A client that vanishes half-way through a request line must be
     counted as a hangup and must not take the server down. *)
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 1 })
    (fun server ->
      let address = Service.Server.address server in
      let path =
        match address with
        | Service.Server.Unix_socket p -> p
        | Service.Server.Tcp _ -> Alcotest.fail "expected a unix socket"
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      ignore (Unix.write_substring fd "solve 1:1:1/2," 0 14);
      Unix.close fd;
      (* the connection thread notices asynchronously *)
      let t0 = Parallel.Clock.now () in
      let rec wait () =
        let s = Service.Server.stats server in
        if s.P.hangups >= 1 || Parallel.Clock.elapsed_s ~since:t0 > 2. then s
        else begin
          Thread.delay 0.005;
          wait ()
        end
      in
      let s = wait () in
      check_int "mid-line hangup counted" 1 s.P.hangups;
      check_int "nothing admitted" 0 s.P.accepted;
      match
        Service.Client.with_client address (fun cl -> request_ok cl P.Health)
      with
      | Ok (P.Ok_health h) -> check "server survives the hangup" true h.P.healthy
      | Ok other ->
        Alcotest.failf "expected health, got %s" (P.response_to_string other)
      | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e))

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

module J = Service.Journal

let tmp_journal () = Filename.temp_file "dls-journal" ".log"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let find_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    if i + n > h then Alcotest.failf "substring %S not found" needle
    else if String.sub haystack i n = needle then i
    else go (i + 1)
  in
  go 0

let journal_open path =
  match J.open_ path with
  | Ok (j, replayed) -> (j, replayed)
  | Error e -> Alcotest.failf "journal open: %s" (Dls.Errors.to_string e)

let journal_append j ~key ~value =
  match J.append j ~key ~value with
  | Ok () -> ()
  | Error e -> Alcotest.failf "journal append: %s" (Dls.Errors.to_string e)

let seed_journal path records =
  let j, replayed = journal_open path in
  check_int "fresh journal replays nothing" 0 (List.length replayed);
  List.iter (fun (key, value) -> journal_append j ~key ~value) records;
  check_int "appends counted" (List.length records) (J.appended j);
  J.close j

let sample_records =
  [
    ("solve 1:1:1/2,1:2:1/2", "ok rho=3/4 alpha=1/2,1/4");
    ("check 1:1:1/2", "ok check valid=true violations=0");
    ("solve 2:1:1,1:3:1/2 load=1000", "ok rho=5/8 alpha=1/3,2/3 makespan=1600");
  ]

let test_journal_roundtrip () =
  let path = tmp_journal () in
  seed_journal path sample_records;
  let j, replayed = journal_open path in
  check "replay is oldest-first append order" true (replayed = sample_records);
  (* payloads must stay single-line: the record framing depends on it *)
  (match J.append j ~key:"bad\nkey" ~value:"v" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "newline-bearing key accepted");
  check_int "rejected append not counted" 0 (J.appended j);
  J.close j;
  Sys.remove path

let test_journal_truncated_tail () =
  let path = tmp_journal () in
  seed_journal path sample_records;
  (* crash mid-append: a torn record at the tail *)
  let good = read_file path in
  write_file path (good ^ "rec deadbeef 17 42\nsolve 3:1:1,2:");
  let j, replayed = journal_open path in
  check "torn tail costs nothing before it" true (replayed = sample_records);
  check_int "file truncated back to the last good boundary"
    (String.length good)
    (String.length (read_file path));
  (* the journal is immediately appendable again *)
  journal_append j ~key:"late" ~value:"ok late";
  J.close j;
  let j, replayed = journal_open path in
  check "post-repair appends replay" true
    (replayed = sample_records @ [ ("late", "ok late") ]);
  J.close j;
  Sys.remove path

let test_journal_crc_corruption () =
  let path = tmp_journal () in
  seed_journal path sample_records;
  (* flip one payload byte of the middle record: lengths and terminators
     still line up, only the checksum disagrees *)
  let contents = read_file path in
  let i = find_sub contents "check 1:1:1/2" in
  let corrupted = Bytes.of_string contents in
  Bytes.set corrupted i 'X';
  write_file path (Bytes.to_string corrupted);
  let j, replayed = journal_open path in
  check "replay stops at the first bad checksum" true
    (replayed = [ List.hd sample_records ]);
  J.close j;
  Sys.remove path

let test_journal_crc32_vector () =
  (* IEEE 802.3 check value: crc32("123456789") = 0xCBF43926. *)
  check_str "crc32 known-answer" "cbf43926"
    (Printf.sprintf "%08lx" (Service.Record_log.crc32 "123456789"))

(* ------------------------------------------------------------------ *)
(* Graceful degradation: shed, brownout, warm restart                  *)
(* ------------------------------------------------------------------ *)

let test_server_shed () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c ->
      {
        c with
        Service.Server.jobs = 1;
        worker_delay = 0.05;
        timeout = Some 0.04;
      })
    (fun server ->
      let address = Service.Server.address server in
      let outcome =
        Service.Client.with_client address (fun cl ->
            (* The first request seeds the service-time EWMA (and times
               out: 50ms of work against a 40ms budget)... *)
            let first = request_ok cl (solve_req (p2 ())) in
            (* ...so the second is refused at admission: even at queue
               depth 0 the predicted service time alone blows the
               budget, and shedding beats queueing doomed work. *)
            let second = request_ok cl (solve_req (p3 ())) in
            (first, second))
      in
      (match outcome with
      | Ok (P.Timed_out _, P.Shed { wait; budget }) ->
        check "echoed budget" true (budget = 0.04);
        check "predicted wait exceeds the budget" true (wait > budget)
      | Ok (r1, r2) ->
        Alcotest.failf "expected timeout then shed, got %s / %s"
          (P.response_to_string r1) (P.response_to_string r2)
      | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e));
      let s = Service.Server.stats server in
      check_int "one timed out" 1 s.P.timed_out;
      check_int "one shed" 1 s.P.shed;
      check_int "shed counts as accepted" 2 s.P.accepted;
      drain_invariant "shed" s)

let test_server_brownout () =
  (* Sustained pressure must trip the brownout downgrade at least once,
     and every response served under it must still be bit-identical to
     the exact solver (the fast pipeline is certified: it falls back to
     exact whenever its own audit fails). *)
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c ->
      {
        c with
        Service.Server.jobs = 1;
        dispatchers = 1;
        queue_capacity = 8;
        max_batch = 1;
        worker_delay = 0.01;
        brownout = true;
      })
    (fun server ->
      let address = Service.Server.address server in
      let clients = 12 in
      let per_client = 2 in
      let answers = Array.make (clients * per_client) None in
      let worker i () =
        match
          Service.Client.with_client address (fun cl ->
              for k = 0 to per_client - 1 do
                let slot = (i * per_client) + k in
                let p =
                  platform
                    [
                      ("1", "1", "1/2");
                      (Printf.sprintf "%d/13" (slot + 1), "2", "1/2");
                    ]
                in
                (* keep the queue saturated: retry overload rejections *)
                let rec send () =
                  match request_ok cl (solve_req p) with
                  | P.Overloaded _ ->
                    Thread.delay 0.002;
                    send ()
                  | P.Ok_solve r -> answers.(slot) <- Some (p, r)
                  | other ->
                    Alcotest.failf "client %d: unexpected %s" i
                      (P.response_to_string other)
                in
                send ()
              done)
        with
        | Ok () -> ()
        | Error e -> Alcotest.failf "client %d: %s" i (Dls.Errors.to_string e)
      in
      let ts = Array.init clients (fun i -> Thread.create (worker i) ()) in
      Array.iter Thread.join ts;
      let s = Service.Server.stats server in
      check "sustained overload tripped the brownout" true (s.P.brownouts >= 1);
      check_int "every request eventually served" (clients * per_client)
        s.P.served;
      drain_invariant "brownout" s;
      Array.iter
        (fun a ->
          match a with
          | None -> Alcotest.fail "missing answer"
          | Some (p, r) ->
            let direct =
              Dls.Solve.solve_exn ~mode:`Exact
                (Dls.Scenario.fifo_exn p (Dls.Fifo.order p))
            in
            check_str "brownout answers bit-identical"
              (Q.to_string direct.Dls.Lp_model.rho)
              (Q.to_string r.P.rho))
        answers)

let test_server_journal_warm_restart () =
  Dls.Lp_model.reset_cache ();
  let journal = tmp_journal () in
  let reqs = [ solve_req (p2 ()); solve_req (p3 ()) ] in
  let first_dump, first_replies =
    with_server
      (fun c -> { c with Service.Server.jobs = 2; journal = Some journal })
      (fun server ->
        let address = Service.Server.address server in
        let replies =
          match
            Service.Client.with_client address (fun cl ->
                List.map
                  (fun r -> P.response_to_string (request_ok cl r))
                  reqs)
          with
          | Ok r -> r
          | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e)
        in
        let s = Service.Server.stats server in
        check_int "unique responses journaled" 2 s.P.journal_appended;
        check_int "fresh journal replays nothing" 0 s.P.journal_replayed;
        check_int "no warm hits before a restart" 0 s.P.warm_hits;
        (Service.Server.cache_dump server, replies))
  in
  check_int "warm cache holds the unique responses" 2 (List.length first_dump);
  (* restart on the same journal: the warm cache must reappear exactly *)
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 2; journal = Some journal })
    (fun server ->
      let address = Service.Server.address server in
      let s0 = Service.Server.stats server in
      check_int "journal replayed at boot" 2 s0.P.journal_replayed;
      check "replayed cache equals the pre-crash cache" true
        (Service.Server.cache_dump server = first_dump);
      let reply =
        match
          Service.Client.with_client address (fun cl ->
              P.response_to_string (request_ok cl (List.hd reqs)))
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "client: %s" (Dls.Errors.to_string e)
      in
      check_str "warm reply bit-identical across the restart"
        (List.hd first_replies) reply;
      let s = Service.Server.stats server in
      check_int "repeat was a warm hit" 1 s.P.warm_hits;
      check_int "warm hit served at admission" 1 s.P.served;
      check_int "warm hit appends nothing new" 0 s.P.journal_appended;
      drain_invariant "warm restart" s);
  Sys.remove journal

(* ------------------------------------------------------------------ *)
(* Resilient client                                                    *)
(* ------------------------------------------------------------------ *)

module R = Service.Resilient

let test_resilient_breaker_lifecycle () =
  Dls.Lp_model.reset_cache ();
  let path = tmp_socket () in
  let address = Service.Server.Unix_socket path in
  let metrics = Service.Metrics.create () in
  let client =
    R.create ~metrics
      {
        (R.default_config address) with
        R.attempts = 2;
        attempt_timeout = Some 0.05;
        backoff_base = 0.001;
        backoff_max = 0.002;
        breaker_threshold = 2;
        breaker_cooldown = 0.15;
      }
  in
  (* nothing listens: both attempts fail, tripping the breaker *)
  (match R.request client P.Health with
  | Error _ -> ()
  | Ok r ->
    Alcotest.failf "request against a dead socket succeeded: %s"
      (P.response_to_string r));
  check "breaker tripped open" true (R.breaker client = R.Breaker_open);
  let st = R.stats client in
  check_int "one trip counted" 1 st.R.breaker_opens;
  check_int "metrics saw the trip" 1 (Service.Metrics.breaker_opens metrics);
  check "a retry was counted" true
    (st.R.retries >= 1 && Service.Metrics.retries metrics >= 1);
  (* while open: refused locally, without touching the network *)
  (match R.request client P.Health with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "open breaker let a request through");
  check_int "fast-fail counted" 1 (R.stats client).R.fast_fails;
  (* bring the server up; after the cooldown, the half-open probe
     succeeds and recloses the breaker *)
  (match
     Service.Server.start
       { (Service.Server.default_config address) with Service.Server.jobs = 1 }
   with
  | Error e -> Alcotest.failf "server start: %s" (Dls.Errors.to_string e)
  | Ok server ->
    Thread.delay 0.2;
    (match R.request client P.Health with
    | Ok (P.Ok_health h) -> check "probe answered" true h.P.healthy
    | Ok other ->
      Alcotest.failf "expected health, got %s" (P.response_to_string other)
    | Error e -> Alcotest.failf "half-open probe: %s" (Dls.Errors.to_string e));
    check "breaker reclosed" true (R.breaker client = R.Breaker_closed);
    R.close client;
    Service.Server.stop server)

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

module C = Service.Chaos

let test_chaos_plan_roundtrip () =
  let plan = C.gen ~seed:5 ~conns:64 ~severity:0.9 in
  check "gen is deterministic" true
    (plan = C.gen ~seed:5 ~conns:64 ~severity:0.9);
  check "severity 0.9 draws faults" true (List.length plan >= 10);
  List.iter
    (fun s ->
      check "every fourth connection is clean" true (s.C.conn mod 4 <> 3))
    plan;
  (match C.of_string (C.to_string plan) with
  | Ok plan' -> check "plan text round trip" true (plan = plan')
  | Error e -> Alcotest.failf "plan parse: %s" (Dls.Errors.to_string e));
  check_int "severity 0 is a clean plan" 0
    (List.length (C.gen ~seed:5 ~conns:64 ~severity:0.));
  match C.of_string "conn 0 req 0 explode" with
  | Error (Dls.Errors.Parse_error _) -> ()
  | Error e ->
    Alcotest.failf "expected parse error, got %s" (Dls.Errors.to_string e)
  | Ok _ -> Alcotest.fail "malformed plan accepted"

let chaos_fault_of_int = function
  | 0 -> C.Drop
  | 1 -> C.Delay 0.004
  | 2 -> C.Stall
  | 3 -> C.Truncate
  | 4 -> C.Garble_req
  | 5 -> C.Garble_resp
  | _ -> C.Disconnect

let regimes = [| Check.Fuzz.Small_z; Check.Fuzz.Unit_z; Check.Fuzz.Big_z |]

(* The certification matrix: >= 300 seeded cases crossing every fault
   kind with every z-regime of the paper (plus clean pass-through
   cases), each on a fresh proxy so fault indices never leak between
   cases.  The resilient client must deliver the bit-identical answer
   with a bounded number of retries, and the server-side accounting
   invariant must survive the whole barrage. *)
let test_chaos_matrix () =
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c ->
      { c with Service.Server.jobs = 2; queue_capacity = 64; max_batch = 8 })
    (fun server ->
      let upstream = Service.Server.address server in
      let cases = 336 in
      let total_retries = ref 0 in
      for case = 0 to cases - 1 do
        let rng = Random.State.make [| 0xc4a05; case |] in
        let p = Check.Fuzz.gen_platform rng regimes.(case mod 3) in
        let req = solve_req p in
        let plan =
          if case mod 8 = 7 then [] (* clean pass-through *)
          else
            [ { C.conn = 0; req = 0; fault = chaos_fault_of_int (case mod 7) } ]
        in
        let fault_label =
          match plan with
          | [] -> "clean"
          | s :: _ -> C.fault_to_string s.C.fault
        in
        match
          C.start
            ~listen:(Service.Server.Unix_socket (tmp_socket ()))
            ~upstream plan
        with
        | Error e ->
          Alcotest.failf "case %d: proxy: %s" case (Dls.Errors.to_string e)
        | Ok proxy ->
          let client =
            R.create
              {
                (R.default_config (C.address proxy)) with
                R.attempts = 4;
                attempt_timeout = Some 0.05;
                backoff_base = 0.001;
                backoff_max = 0.004;
                jitter_seed = case;
              }
          in
          let resp =
            match R.request client req with
            | Ok r -> r
            | Error e ->
              Alcotest.failf "case %d (%s): %s" case fault_label
                (Dls.Errors.to_string e)
          in
          let st = R.stats client in
          total_retries := !total_retries + st.R.retries;
          check
            (Printf.sprintf "case %d (%s): bounded retries" case fault_label)
            true (st.R.retries <= 3);
          R.close client;
          C.stop proxy;
          let direct =
            Dls.Solve.solve_exn ~mode:`Exact
              (Dls.Scenario.fifo_exn p (Dls.Fifo.order p))
          in
          (match resp with
          | P.Ok_solve r ->
            check_str
              (Printf.sprintf "case %d (%s): rho bit-identical" case fault_label)
              (Q.to_string direct.Dls.Lp_model.rho)
              (Q.to_string r.P.rho);
            check_str
              (Printf.sprintf "case %d (%s): makespan bit-identical" case
                 fault_label)
              (Q.to_string
                 (Dls.Lp_model.time_for_load direct ~load:(q "1000")))
              (Q.to_string (Option.get r.P.makespan))
          | other ->
            Alcotest.failf "case %d (%s): expected ok solve, got %s" case
              fault_label (P.response_to_string other))
      done;
      (* at most one retry per faulted case, plus slack for timing *)
      check "retry budget across the matrix" true (!total_retries <= cases);
      let s = Service.Server.stats server in
      check "garbled requests were refused, not served" true
        (s.P.malformed >= 1);
      drain_invariant "chaos matrix" s)

let test_loadgen_chaos_goodput () =
  (* Replies delayed past the caller's deadline count as throughput but
     not goodput — the two must be reported separately. *)
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 2 })
    (fun server ->
      let upstream = Service.Server.address server in
      let plan =
        [
          { C.conn = 0; req = 0; fault = C.Delay 0.06 };
          { C.conn = 1; req = 0; fault = C.Delay 0.06 };
        ]
      in
      match
        C.start ~listen:(Service.Server.Unix_socket (tmp_socket ())) ~upstream
          plan
      with
      | Error e -> Alcotest.failf "proxy: %s" (Dls.Errors.to_string e)
      | Ok proxy ->
        let rcfg =
          {
            (R.default_config upstream) with
            R.attempts = 3;
            attempt_timeout = Some 0.5;
          }
        in
        let r =
          Service.Loadgen.run ~resilient:rcfg ~deadline_s:0.03
            (C.address proxy) ~connections:2 ~requests:8 ~seed:11 ~distinct:4
            ()
        in
        C.stop proxy;
        (match r with
        | Error e -> Alcotest.failf "loadgen: %s" (Dls.Errors.to_string e)
        | Ok o ->
          check_int "every request answered" 8
            (o.Service.Loadgen.ok + o.Service.Loadgen.overloaded
            + o.Service.Loadgen.timeouts + o.Service.Loadgen.shed
            + o.Service.Loadgen.failed);
          check_int "no failures" 0 o.Service.Loadgen.failed;
          check "delayed replies are throughput, not goodput" true
            (o.Service.Loadgen.goodput < o.Service.Loadgen.ok)))

let test_loadgen_chaos_resilient_beats_naive () =
  (* Same drop plan, two arms: the naive client loses every dropped
     request (it reconnects but never retries); the resilient client
     recovers all of them.  The plan drops the first request of each of
     the four initial connections, so the outcome is deterministic. *)
  Dls.Lp_model.reset_cache ();
  with_server
    (fun c -> { c with Service.Server.jobs = 2; queue_capacity = 64 })
    (fun server ->
      let upstream = Service.Server.address server in
      let plan =
        List.init 4 (fun c -> { C.conn = c; req = 0; fault = C.Drop })
      in
      let run_arm ?resilient () =
        match
          C.start
            ~listen:(Service.Server.Unix_socket (tmp_socket ()))
            ~upstream plan
        with
        | Error e -> Alcotest.failf "proxy: %s" (Dls.Errors.to_string e)
        | Ok proxy ->
          let r =
            Service.Loadgen.run ?resilient ~deadline_s:0.15 (C.address proxy)
              ~connections:4 ~requests:16 ~seed:2 ~distinct:4 ()
          in
          C.stop proxy;
          (match r with
          | Ok o -> o
          | Error e -> Alcotest.failf "loadgen: %s" (Dls.Errors.to_string e))
      in
      let naive = run_arm () in
      let rcfg =
        {
          (R.default_config upstream) with
          R.attempts = 3;
          attempt_timeout = Some 0.05;
          backoff_base = 0.001;
          backoff_max = 0.004;
        }
      in
      let resil = run_arm ~resilient:rcfg () in
      check_int "naive loses every dropped request" 4
        naive.Service.Loadgen.failed;
      check_int "naive throughput" 12 naive.Service.Loadgen.ok;
      check_int "resilient recovers them all" 16 resil.Service.Loadgen.ok;
      check_int "no resilient failures" 0 resil.Service.Loadgen.failed;
      check "retries did the recovering" true
        (resil.Service.Loadgen.retries >= 4);
      drain_invariant "chaos loadgen" (Service.Server.stats server))

(* ------------------------------------------------------------------ *)
(* Wire-format back compatibility                                      *)
(* ------------------------------------------------------------------ *)

let test_protocol_backcompat_lines () =
  (* Lines rendered by a pre-resilience daemon must parse with the new
     fields at their documented defaults. *)
  let old_stats =
    "ok stats accepted=10 served=7 rejected=1 timed_out=2 failed=1 \
     malformed=2 batches=3 max_batch=4 collapsed=1 cache_hits=5 \
     cache_misses=2 repair_probes=0 repair_wins=0 repair_pivots=0 \
     dispatchers=1 steals=0 queue_depth=0 inflight=0 p50_us=10 p90_us=20 \
     p99_us=30 max_us=40 uptime_s=1.5"
  in
  (match P.parse_response old_stats with
  | Ok (P.Ok_stats s) ->
    check_int "accepted preserved" 10 s.P.accepted;
    check_int "shed defaults to 0" 0 s.P.shed;
    check_int "brownouts defaults to 0" 0 s.P.brownouts;
    check_int "hangups defaults to 0" 0 s.P.hangups;
    check_int "warm_hits defaults to 0" 0 s.P.warm_hits;
    check_int "journal_appended defaults to 0" 0 s.P.journal_appended;
    check_int "journal_replayed defaults to 0" 0 s.P.journal_replayed
  | Ok other ->
    Alcotest.failf "expected stats, got %s" (P.response_to_string other)
  | Error e -> Alcotest.failf "old stats line: %s" (Dls.Errors.to_string e));
  let old_health mode_less =
    Printf.sprintf
      "ok health healthy=%s draining=%s uptime_s=2.5 queue=0 capacity=64 \
       workers=4"
      (if mode_less = `Healthy then "true" else "false")
      (if mode_less = `Draining then "true" else "false")
  in
  (match P.parse_response (old_health `Healthy) with
  | Ok (P.Ok_health h) ->
    check "healthy preserved" true h.P.healthy;
    check "absent mode derived as healthy" true (h.P.h_mode = P.Mode_healthy)
  | _ -> Alcotest.fail "old healthy line did not parse");
  match P.parse_response (old_health `Draining) with
  | Ok (P.Ok_health h) ->
    check "absent mode derived as draining" true (h.P.h_mode = P.Mode_draining)
  | _ -> Alcotest.fail "old draining line did not parse"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round trip" `Quick test_request_roundtrip;
          Alcotest.test_case "response round trip" `Quick test_response_roundtrip;
          Alcotest.test_case "error positions" `Quick test_request_error_positions;
          Alcotest.test_case "huge exponent rejected" `Quick
            test_huge_exponent_rejected;
          Alcotest.test_case "garbage never raises" `Quick
            test_parser_garbage_never_raises;
          Alcotest.test_case "non-finite floats" `Quick test_float_nonfinite;
          Alcotest.test_case "platform spec hardening" `Quick
            test_platform_spec_hardening;
          Alcotest.test_case "pre-resilience lines still parse" `Quick
            test_protocol_backcompat_lines;
        ] );
      ( "wire",
        [
          Alcotest.test_case "byte-at-a-time framing" `Quick
            test_wire_byte_at_a_time;
          Alcotest.test_case "read deadline keeps partial lines" `Quick
            test_wire_read_deadline;
          Alcotest.test_case "1 MiB line, linear allocation" `Quick
            test_wire_long_line;
          Alcotest.test_case "three lines from one write" `Quick
            test_wire_lines_in_one_write;
        ] );
      ( "journal",
        [
          Alcotest.test_case "append/replay round trip" `Quick
            test_journal_roundtrip;
          Alcotest.test_case "torn tail truncated, journal reusable" `Quick
            test_journal_truncated_tail;
          Alcotest.test_case "replay stops at a bad checksum" `Quick
            test_journal_crc_corruption;
          Alcotest.test_case "crc32 known-answer vector" `Quick
            test_journal_crc32_vector;
        ] );
      ( "metrics",
        [ Alcotest.test_case "quantile edges" `Quick test_metrics_quantiles ] );
      ( "queue",
        [
          Alcotest.test_case "basics" `Quick test_queue_basics;
          Alcotest.test_case "close drains" `Quick test_queue_close_drains;
          Alcotest.test_case "concurrent" `Quick test_queue_concurrent;
        ] );
      ( "shards",
        [
          Alcotest.test_case "exactly-once across consumers" `Quick
            test_shards_exactly_once;
          Alcotest.test_case "dry shard steals from the longest" `Quick
            test_shards_steal;
          Alcotest.test_case "close wakes blocked pop" `Quick
            test_shards_close_wakes_blocked_pop;
        ] );
      ( "server",
        [
          Alcotest.test_case "solve bit-identical" `Quick
            test_server_solve_bit_identical;
          Alcotest.test_case "single-flight collapse" `Quick
            test_server_single_flight_collapse;
          Alcotest.test_case "overload backpressure" `Quick test_server_overload;
          Alcotest.test_case "per-request timeout" `Quick test_server_timeout;
          Alcotest.test_case "drain under load" `Quick test_server_drain_under_load;
          Alcotest.test_case "malformed + inline stats" `Quick
            test_server_malformed_and_inline;
          Alcotest.test_case "multi-dispatcher drain" `Quick
            test_server_multi_dispatcher;
          Alcotest.test_case "hangup mid-line" `Quick test_server_kill_mid_line;
          Alcotest.test_case "deadline-aware shed" `Quick test_server_shed;
          Alcotest.test_case "brownout downgrade" `Quick test_server_brownout;
          Alcotest.test_case "journal warm restart" `Quick
            test_server_journal_warm_restart;
        ] );
      ( "resilient",
        [
          Alcotest.test_case "breaker open/half-open/close" `Quick
            test_resilient_breaker_lifecycle;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "plan round trip + generator" `Quick
            test_chaos_plan_roundtrip;
          Alcotest.test_case "fault matrix certification" `Slow
            test_chaos_matrix;
          Alcotest.test_case "goodput vs throughput under delay" `Quick
            test_loadgen_chaos_goodput;
          Alcotest.test_case "resilient beats naive under drops" `Quick
            test_loadgen_chaos_resilient_beats_naive;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "deterministic stream" `Quick
            test_loadgen_deterministic;
          Alcotest.test_case "against a server" `Quick test_loadgen_against_server;
          Alcotest.test_case "skewed key popularity" `Quick test_loadgen_skew;
        ] );
    ]
