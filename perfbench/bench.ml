(* The repository benchmark: one workload per invocation.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --dls PATH --run-dir DIR [settings]

   Prints a human-readable report, then, as its last line, one JSON
   object: [correct], [attempted], [failed] and [metrics] (the
   end-to-end metrics untraced, the per-layer metrics traced).  An
   invalid run (generator behind, machine speed drifting, a metric with
   no samples) exits with code 3 and prints no result.  See README.md. *)

(* The gated end-to-end metrics.  Every workload reports all of them. *)
let end_to_end =
  [ ("exact_ms.p50", "ms"); ("exact_ms.p95", "ms"); ("fast_ms.p50", "ms"); ("fast_ms.p95", "ms");
    ("cpu_us_per_req", "us"); ("slo_ratio", "ratio"); ("setup_s", "s"); ("rss_mb", "MB") ]

(* Every per-layer metric, in report order.  A layer a workload does not
   cross reports 0.  The first four are the fleet's wall-clock
   throughput, open-loop latency and system CPU time per request:
   reported by every run, but ungated, because on a shared two-core
   machine they move with the host far more than with the program (see
   README.md). *)
let per_layer =
  [ ("rps", "1/s"); ("lat_ms.p50", "ms"); ("lat_ms.p99", "ms"); ("fleet.sys_us_per_req", "us"); ("numeric.muladd_ns", "ns"); ("simplex.exact_pivots", "count"); ("simplex.exact_us_per_pivot", "us");
    ("simplex.float_pivots", "count"); ("simplex.exact_fallbacks", "count");
    ("simplex.certified_ratio", "ratio"); ("lp_model.build_us", "us");
    ("lp_model.fifo_p3.exact_ms", "ms"); ("lp_model.fifo_p8.exact_ms", "ms");
    ("lp_model.fifo_p12.exact_ms", "ms"); ("lp_model.fifo_p8.fast_ms", "ms");
    ("lp_model.fifo_p12.fast_ms", "ms"); ("steady_state.steady_ms", "ms"); ("steady_state.batch_ms", "ms");
    ("steady_state.batch_pivots", "count"); ("eval.solve_us", "us"); ("eval.simulate_us", "us");
    ("eval.share", "ratio"); ("protocol.parse_us", "us"); ("protocol.key_us", "us");
    ("protocol.render_us", "us"); ("protocol.parse_response_us", "us"); ("client.shard_rtt_us.p50", "us");
    ("client.shard_rtt_us.p99", "us"); ("router.hop_us", "us"); ("router.failovers", "count");
    ("router.unavailable", "count"); ("router.shard_split", "ratio"); ("server.cache_hit_ratio", "ratio");
    ("server.warm_hits", "count"); ("server.collapsed", "count"); ("server.batch_mean", "count");
    ("server.repair_win_ratio", "ratio"); ("server.steals", "count"); ("server.shed", "count");
    ("server.rejected", "count"); ("server.failed", "count"); ("server.hangups", "count");
    ("server.p50_us", "us"); ("server.p99_us", "us"); ("store.hit_ratio", "ratio");
    ("store.demoted", "count"); ("journal.appended", "count"); ("journal.replayed", "count");
    ("store.open_ms", "ms"); ("store.find_us", "us"); ("store.add_us", "us"); ("journal.open_ms", "ms");
    ("journal.append_us", "us"); ("gen.lag_ms.p99", "ms"); ("gen.lag_ms.max", "ms");
    ("trace.overhead_pct", "%"); ("env.calib_ms", "ms"); ("env.speed_ms", "ms") ]

(* Validity bounds.  A run whose open-loop generator sent requests late, or
   during which the fixed CPU loop's time doubled, did not measure the
   program alone.  The bounds sit well above what host noise alone
   produced on a shared two-core VM (lag p99 up to 7 ms, calibration
   moving up to 1.4x). *)
let max_lag_p99_ms = 50.
let max_behind_s = 2.
let max_calib_drift = 2.

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable dls : string;
  mutable run_dir : string;
  mutable settings : (string * float) list;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload lp-cold|fleet-miss|fleet-hot --seed N --seconds S --trace 0|1 \
     --dls PATH --run-dir DIR [--SETTING VALUE ...]";
  exit 2

let parse_args () =
  let a = { workload = ""; seed = 1; seconds = 10.; trace = false; dls = ""; run_dir = ""; settings = [] } in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a.workload <- v; go rest
    | "--seed" :: v :: rest -> a.seed <- int_of_string v; go rest
    | "--seconds" :: v :: rest -> a.seconds <- float_of_string v; go rest
    | "--trace" :: v :: rest -> a.trace <- v = "1"; go rest
    | "--dls" :: v :: rest -> a.dls <- v; go rest
    | "--run-dir" :: v :: rest -> a.run_dir <- v; go rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      a.settings <- (String.sub k 2 (String.length k - 2), float_of_string v) :: a.settings;
      go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if a.workload = "" || a.run_dir = "" then usage ();
  a

let setting a name =
  match List.assoc_opt name a.settings with
  | Some v -> v
  | None ->
    Printf.eprintf "perfbench: missing setting --%s\n" name;
    exit 2

type outcome = {
  metrics : Util.metric list;  (* end-to-end *)
  service : Util.metric list;  (* wall-clock, reported ungated *)
  layers : Util.metric list;  (* per-layer, traced runs only *)
  speed_ms : float;  (* median speed probe over the measurement *)
  slo_basis : string * float array * float;  (* what [slo_ratio] counts: name, samples (ms), limit *)
  attempted : int;
  failed : int;
  digest : string;
  fleet : Fleet.result option;
}

(* lp-cold: the corpus pass gives the end-to-end metrics; [slo_ratio] is
   the share of LPs answered in both modes and verified within the
   workload's limit, in CPU time. *)
let lp_cold a =
  let limit_ms = setting a "lp-limit-ms" in
  let r = Lp_cold.run ~seed:a.seed ~seconds:a.seconds in
  let s = r.Lp_cold.samples in
  let n = Array.length s in
  let ms f = Array.map (fun x -> f x *. 1e3) s in
  let exact = ms (fun x -> x.Lp_layer.exact_s) and fast = ms (fun x -> x.Lp_layer.fast_s) in
  let bad = Array.fold_left (fun k x -> if x.Lp_layer.ok then k else k + 1) 0 s in
  let within =
    Array.fold_left
      (fun k x -> if x.Lp_layer.ok && x.Lp_layer.round_s *. 1e3 <= limit_ms then k + 1 else k)
      0 s
  in
  let m = Util.metric ~n in
  let metrics =
    [ m "exact_ms.p50" "ms" (Util.median exact); m "exact_ms.p95" "ms" (Util.percentile 0.95 exact);
      m "fast_ms.p50" "ms" (Util.median fast); m "fast_ms.p95" "ms" (Util.percentile 0.95 fast);
      m "cpu_us_per_req" "us" (Util.sum (Array.map (fun x -> x.Lp_layer.round_s) s) /. float_of_int n *. 1e6);
      m "slo_ratio" "ratio" (Util.ratio within n); Util.metric ~n:Lp_cold.setups "setup_s" "s" r.Lp_cold.setup_s;
      Util.metric "rss_mb" "MB" r.Lp_cold.rss_mb ]
  in
  { metrics; service = []; layers = r.Lp_cold.per_layer; speed_ms = r.Lp_cold.speed_ms;
    slo_basis = ("LP round CPU time", ms (fun x -> x.Lp_layer.round_s), limit_ms); attempted = n; failed = bad;
    digest = r.Lp_cold.digest; fleet = None }

let fleet a ~hot =
  let name = if hot then "hot" else "miss" in
  let spec =
    { Fleet.dls = a.dls; seed = a.seed; seconds = a.seconds; hot;
      rate = setting a (name ^ "-rate"); limit_ms = setting a (name ^ "-limit-ms") }
  in
  let r = Fleet.run spec in
  { metrics = r.Fleet.metrics; service = r.Fleet.service; layers = r.Fleet.service @ r.Fleet.per_layer;
    speed_ms = r.Fleet.speed_ms; slo_basis = ("open-loop latency", r.Fleet.open_lat_ms, spec.Fleet.limit_ms);
    attempted = r.Fleet.attempted; failed = r.Fleet.failed; digest = r.Fleet.digest; fleet = Some r }

let () =
  (* Exit through [at_exit] on a stop request, which stops the fleet. *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ];
  let a = parse_args () in
  Span.enabled := a.trace;
  let dls = if a.dls = "" || Filename.is_relative a.dls then Filename.concat (Sys.getcwd ()) a.dls else a.dls in
  let a = { a with dls } in
  Util.rm_rf a.run_dir;
  Util.mkdir_p a.run_dir;
  Sys.chdir a.run_dir;
  let calib_before = Util.calib_ms () in
  let o =
    match a.workload with
    | "lp-cold" -> lp_cold a
    | "fleet-miss" -> fleet a ~hot:false
    | "fleet-hot" -> fleet a ~hot:true
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  let calib_after = Util.calib_ms () in
  let calib = Util.metric "env.calib_ms" "ms" ((calib_before +. calib_after) /. 2.) in
  let speed = Util.metric "env.speed_ms" "ms" o.speed_ms in
  if a.trace then Span.write "spans.jsonl";
  (* Report. *)
  Printf.printf "workload %s  seed %d  seconds %g  trace %b\n" a.workload a.seed a.seconds a.trace;
  Printf.printf "inputs digest %s\n" o.digest;
  Printf.printf "env.calib_ms before %.3f after %.3f\n" calib_before calib_after;
  Printf.printf "env.speed_ms %.4f (CPU times are scaled by %.4f / this)\n" o.speed_ms (Util.reference_probe_s *. 1e3);
  let show (m : Util.metric) =
    Printf.printf "  %-28s %14.6g %-6s%s\n" m.Util.name m.Util.value m.Util.unit
      (if m.Util.n > 0 then Printf.sprintf "  n=%d" m.Util.n else "")
  in
  let pick names have =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (m : Util.metric) -> m.Util.name = name) have with
        | Some m -> m
        | None -> Util.metric name unit 0.)
      names
  in
  let chosen = if a.trace then pick per_layer (calib :: speed :: o.layers) else pick end_to_end o.metrics in
  List.iter show chosen;
  (* A tail percentile needs ten samples beyond it to mean anything. *)
  List.iter
    (fun (m : Util.metric) ->
      let tail suffix = String.ends_with ~suffix m.Util.name in
      let q = if tail ".p99" then 0.99 else 0.95 in
      if (tail ".p95" || tail ".p99") && m.Util.n > 0 && not (Util.tail_ok q m.Util.n)
      then Printf.printf "note: %s has fewer than ten samples beyond it (n=%d)\n" m.Util.name m.Util.n)
    (chosen @ o.service);
  if (not a.trace) && o.service <> [] then begin
    Printf.printf "service metrics (reported, not gated):\n";
    List.iter show o.service
  end;
  if a.trace then begin
    Printf.printf "layer self time (spans in %s/spans.jsonl):\n" a.run_dir;
    List.iter
      (fun (name, (n, total, self)) ->
        Printf.printf "  %-24s n=%-7d total %10.3f ms  self %10.3f ms\n" name n (total *. 1e3) (self *. 1e3))
      (Span.summary ())
  end;
  Option.iter
    (fun (r : Fleet.result) ->
      Printf.printf "open-loop p99 per window (ms):%s\n"
        (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.2f") r.Fleet.window_p99_ms)));
      Printf.printf "closed-loop rate per window (1/s):%s\n"
        (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %.0f") r.Fleet.window_rps))))
    o.fleet;
  (let what, xs, limit = o.slo_basis in
   Printf.printf "slo_ratio counts %s within %g ms; p90 %.3f  p95 %.3f  p97 %.3f  p99 %.3f ms\n" what limit
     (Util.percentile 0.90 xs) (Util.percentile 0.95 xs) (Util.percentile 0.97 xs) (Util.percentile 0.99 xs));
  Printf.printf "attempted %d  failed %d\n" o.attempted o.failed;
  (* Validity. *)
  let invalid =
    ref
      (List.filter_map
         (fun (m : Util.metric) ->
           if Float.is_finite m.Util.value then None else Some (m.Util.name ^ " has no samples"))
         chosen)
  in
  let drift = Float.max calib_before calib_after /. Float.min calib_before calib_after in
  if drift > max_calib_drift then
    invalid := Printf.sprintf "calibration drifted %.2fx (bound %.2fx)" drift max_calib_drift :: !invalid;
  Option.iter
    (fun (r : Fleet.result) ->
      let lag = Util.percentile 0.99 r.Fleet.lag_ms in
      if lag > max_lag_p99_ms then
        invalid := Printf.sprintf "generator lag p99 %.2f ms (bound %.0f ms)" lag max_lag_p99_ms :: !invalid;
      if r.Fleet.behind_s > max_behind_s then
        invalid :=
          Printf.sprintf "open loop fell %.2f s behind schedule (bound %.0f s)" r.Fleet.behind_s max_behind_s
          :: !invalid)
    o.fleet;
  if !invalid <> [] then begin
    List.iter (fun s -> Printf.printf "INVALID run: %s\n" s) !invalid;
    exit 3
  end;
  print_endline (Util.result_json ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed chosen)
