(* The solver layers, timed from outside: [numeric], [simplex],
   [Lp_model], [Solve], [Steady_state] and the daemon's request
   evaluation, called in-process exactly as the daemon calls them. *)

module Q = Numeric.Rational
module P = Service.Protocol

let get = Dls.Errors.get_exn
let q_arrays_equal a b = Array.length a = Array.length b && Array.for_all2 Q.equal a b
let q_matrices_equal a b = Array.length a = Array.length b && Array.for_all2 q_arrays_equal a b

(* ------------------------------------------------------------------ *)
(* Request evaluation                                                  *)

(* A request line the benchmark generated itself, so it parses. *)
let parse line = Result.get_ok (P.parse_request ~line:1 line)

(* The library calls the daemon's evaluator makes for each verb, and
   the response it renders.  [`Exact] is the reference path (no floats
   anywhere), [`Fast] the certified float-first pipeline, [`Daemon] the
   mode a shard picks for the request ([`Cached] for fast requests).
   Multi-load, simulate and check have a single path. *)

let scenario_of (r : P.solve_req) =
  let p = r.P.s_platform in
  match r.P.s_order with
  | P.Fifo -> Dls.Scenario.fifo_exn p (Dls.Fifo.order p)
  | P.Lifo -> Dls.Scenario.lifo_exn p (Dls.Lifo.order p)

type answer =
  | Lp_answer of Dls.Scenario.t * Dls.Lp_model.solved
  | Steady_answer of Dls.Steady_state.solved
  | Batch_answer of Dls.Steady_state.batch

(* The solve behind a [solve] or [solve-multi] request. *)
let solve_req ~mode = function
  | P.Solve r ->
    let scenario = scenario_of r in
    let mode =
      match mode with
      | `Daemon -> if r.P.s_fast then `Cached else `Exact
      | (`Exact | `Fast) as m -> m
    in
    Lp_answer (scenario, Dls.Solve.solve_exn ~mode ~model:r.P.s_model scenario)
  | P.Solve_multi { u_platform = p; u_workload = w; u_mode = P.Steady; _ } ->
    Steady_answer (get (Dls.Steady_state.solve p w))
  | P.Solve_multi { u_platform = p; u_workload = w; u_mode = P.Batch; u_depth } ->
    Batch_answer
      (get
         (match u_depth with
         | Some depth -> Dls.Steady_state.solve_batch ~depth p w
         | None -> Dls.Steady_state.solve_batch_best p w))
  | _ -> invalid_arg "Lp_layer.solve_req: not a solve"

let response_of r a =
  match (r, a) with
  | P.Solve r, Lp_answer (scenario, sol) ->
    P.Ok_solve
      { rho = sol.Dls.Lp_model.rho; sigma1 = Array.copy scenario.Dls.Scenario.sigma1;
        alpha = sol.Dls.Lp_model.alpha; idle = sol.Dls.Lp_model.idle;
        makespan = Option.map (fun load -> Dls.Lp_model.time_for_load sol ~load) r.P.s_load }
  | _, Steady_answer s ->
    P.Ok_multi
      { mm_mode = P.Steady; mm_value = s.Dls.Steady_state.period;
        mm_throughput = s.Dls.Steady_state.throughput; mm_depth = None;
        mm_alloc = s.Dls.Steady_state.alloc }
  | P.Solve_multi m, Batch_answer b ->
    let makespan = b.Dls.Steady_state.makespan in
    P.Ok_multi
      { mm_mode = P.Batch; mm_value = makespan;
        mm_throughput = Q.div (Dls.Workload.total_size m.P.u_workload) makespan;
        mm_depth = Some b.Dls.Steady_state.depth; mm_alloc = b.Dls.Steady_state.chunks }
  | _ -> invalid_arg "Lp_layer.response_of"

(* The fault-free simulate path (the benchmark sends no fault plans). *)
let eval_simulate (r : P.simulate_req) =
  let p = r.P.m_platform in
  let sol = match r.P.m_order with P.Fifo -> Dls.Fifo.optimal p | P.Lifo -> Dls.Lifo.optimal p in
  let load = Q.of_int r.P.m_items in
  let lp_makespan = Q.to_float (Dls.Lp_model.time_for_load sol ~load) in
  let trace = Sim.Star.execute p (Sim.Star.plan_of_rounded sol ~total:r.P.m_items) in
  P.Ok_simulate
    { sim_makespan = trace.Sim.Trace.makespan; lp_makespan; sim_valid = Sim.Trace.is_valid trace;
      achieved = None; achieved_ratio = None; replanned = None }

let eval_check p =
  let count sol =
    let errors = function Ok () -> 0 | Error msgs -> List.length msgs in
    errors (Check.Validator.errors_of_result p (Check.Validator.validate_solved sol))
    + errors (Check.Certificate.check sol)
  in
  let violations = count (Dls.Fifo.optimal p) + count (Dls.Lifo.optimal p) in
  P.Ok_check { check_ok = violations = 0; violations }

let eval ~mode r =
  match r with
  | P.Solve _ | P.Solve_multi _ -> response_of r (solve_req ~mode r)
  | P.Simulate r -> eval_simulate r
  | P.Check p -> eval_check p
  | P.Stats | P.Health | P.Hello -> invalid_arg "Lp_layer.eval: control verb"

(* ------------------------------------------------------------------ *)
(* Exact and fast passes over an LP                                    *)

(* Bit-identity of two answers: rho, alpha and idle for LP(2); the
   optimum and its allocation for the multi-load programs. *)
let same a b =
  match (a, b) with
  | Lp_answer (_, x), Lp_answer (_, y) ->
    Q.equal x.Dls.Lp_model.rho y.Dls.Lp_model.rho
    && q_arrays_equal x.Dls.Lp_model.alpha y.Dls.Lp_model.alpha
    && q_arrays_equal x.Dls.Lp_model.idle y.Dls.Lp_model.idle
  | Steady_answer x, Steady_answer y ->
    Q.equal x.Dls.Steady_state.period y.Dls.Steady_state.period
    && q_matrices_equal x.Dls.Steady_state.alloc y.Dls.Steady_state.alloc
  | Batch_answer x, Batch_answer y ->
    Q.equal x.Dls.Steady_state.makespan y.Dls.Steady_state.makespan
    && q_matrices_equal x.Dls.Steady_state.chunks y.Dls.Steady_state.chunks
  | _ -> false

let pivots = function
  | Lp_answer (_, s) -> s.Dls.Lp_model.pivots
  | Steady_answer s -> s.Dls.Steady_state.pivots
  | Batch_answer b -> b.Dls.Steady_state.b_pivots

(* The LP class a request belongs to, for the per-size medians. *)
let lp_class = function
  | P.Solve r ->
    Printf.sprintf "%s_p%d"
      (match r.P.s_order with P.Fifo -> "fifo" | P.Lifo -> "lifo")
      (Dls.Platform.size r.P.s_platform)
  | P.Solve_multi { u_mode = P.Steady; _ } -> "steady"
  | P.Solve_multi { u_mode = P.Batch; _ } -> "batch"
  | _ -> "other"

let is_solve = function P.Solve _ | P.Solve_multi _ -> true | _ -> false

(* One LP of a pass: its class, both solve times and the whole round
   (exact, fast, compare) in CPU seconds (at the reference speed once a
   {!meter} has scaled them), the exact pivots and whether the two
   answers agreed. *)
type sample = { cls : string; exact_s : float; fast_s : float; round_s : float; exact_pivots : int; ok : bool }

(* Fast-pass counters, summed from {!Dls.Lp_model.pipeline_stats}
   deltas around each fast solve. *)
type fast_counts = { mutable lps : int; mutable float_pivots : int; mutable fallbacks : int; mutable certified : int }

let fast_counts = { lps = 0; float_pivots = 0; fallbacks = 0; certified = 0 }

(* Solve the LP behind request [lp] exactly, then fast, and compare.
   Returns the sample and the exact answer. *)
let run_lp ~req lp =
  Span.with_ ~req "lp" (fun parent ->
      let t0 = Util.cpu_now () in
      let exact, exact_s = Span.with_ ~parent ~req "solve.exact" (fun _ -> Util.cpu_time (fun () -> solve_req ~mode:`Exact lp)) in
      let before = Dls.Lp_model.pipeline_stats () in
      let fast, fast_s = Span.with_ ~parent ~req "solve.fast" (fun _ -> Util.cpu_time (fun () -> solve_req ~mode:`Fast lp)) in
      let after = Dls.Lp_model.pipeline_stats () in
      let open Dls.Lp_model in
      fast_counts.lps <- fast_counts.lps + 1;
      fast_counts.float_pivots <- fast_counts.float_pivots + after.float_pivots - before.float_pivots;
      fast_counts.fallbacks <- fast_counts.fallbacks + after.exact_fallbacks - before.exact_fallbacks;
      fast_counts.certified <-
        fast_counts.certified + after.float_wins - before.float_wins + after.warm_wins - before.warm_wins;
      let ok = Span.with_ ~parent ~req "compare" (fun _ -> same exact fast) in
      ( { cls = lp_class lp; exact_s; fast_s; round_s = Util.cpu_now () -. t0; exact_pivots = pivots exact; ok },
        exact ))

(* Samples at the reference speed (see {!Util.speed_probe}): LPs are
   measured in groups of [group] with a speed probe after each group,
   and a group's times are scaled by the mean of the probes on either
   side of it.  A group lasts tens of milliseconds, shorter than the
   host's phases. *)
type meter = { mutable last : float; pending : sample Util.Vec.t; scaled : sample Util.Vec.t; probes : float Util.Vec.t }

let group = 8

let meter () =
  let p = Util.speed_probe () in
  let probes = Util.Vec.create () in
  Util.Vec.push probes p;
  { last = p; pending = Util.Vec.create (); scaled = Util.Vec.create (); probes }

let flush m =
  if Util.Vec.length m.pending > 0 then begin
    let p = Util.speed_probe () in
    Util.Vec.push m.probes p;
    let k = Util.reference_probe_s /. ((m.last +. p) /. 2.) in
    m.last <- p;
    Array.iter
      (fun s -> Util.Vec.push m.scaled { s with exact_s = s.exact_s *. k; fast_s = s.fast_s *. k; round_s = s.round_s *. k })
      (Util.Vec.to_array m.pending);
    Util.Vec.clear m.pending
  end

(* [run_lp] under the meter; returns the exact answer. *)
let measure m ~req lp =
  let sample, exact = run_lp ~req lp in
  Util.Vec.push m.pending sample;
  if Util.Vec.length m.pending >= group then flush m;
  exact

let scaled_samples m =
  flush m;
  Util.Vec.to_array m.scaled

(* Median probe time, ms: the host's speed over the measurement. *)
let probe_ms m = Util.median (Array.map (fun p -> p *. 1e3) (Util.Vec.to_array m.probes))

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of the solver stack                               *)

(* Median ns of [Q.add (Q.mul a b) a] over operand pairs, timed in
   batches so the clock's resolution does not matter. *)
let muladd_ns pairs =
  let reps = 200 in
  let per_pair =
    Array.map
      (fun (a, b) ->
        let t0 = Util.now () in
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (Q.add (Q.mul a b) a))
        done;
        (Util.now () -. t0) *. 1e9 /. float_of_int reps)
      pairs
  in
  Util.median per_pair

(* Operand pairs from the LPs' own coefficients, small as they are and
   lifted near 2^62 (numerator [max_int - k], same denominator), where
   a machine-integer fast path would have to detect overflow. *)
let operand_pairs lps =
  let coeffs =
    List.concat_map
      (fun r ->
        match r with
        | P.Solve { s_platform = p; _ } | P.Solve_multi { u_platform = p; _ }
        | P.Simulate { m_platform = p; _ } | P.Check p ->
          List.concat_map
            (fun (w : Dls.Platform.worker) -> [ w.c; w.w; w.d ])
            (Array.to_list p.Dls.Platform.workers)
        | P.Stats | P.Health | P.Hello -> [])
      (Array.to_list lps)
  in
  let coeffs = Array.of_list (List.filter (fun q -> not (Q.is_zero q)) coeffs) in
  let n = Array.length coeffs in
  let big q =
    let k = Option.value ~default:1 (Numeric.Integer.to_int_opt (Q.num q)) in
    Q.make (Numeric.Integer.of_int (max_int - abs k)) (Q.den q)
  in
  let m = min 400 (n / 2) in
  Array.init (2 * m) (fun i ->
      let a = coeffs.(2 * (i / 2)) and b = coeffs.((2 * (i / 2)) + 1) in
      if i mod 2 = 0 then (a, b) else (big a, big b))

(* Median [Lp_model.problem] build time over the LP(2) requests. *)
let build_us lps =
  let times =
    Array.of_list
      (List.filter_map
         (function
           | P.Solve r ->
             let scenario = scenario_of r in
             let _, s = Util.time (fun () -> Dls.Lp_model.problem r.P.s_model scenario) in
             Some (s *. 1e6)
           | _ -> None)
         (Array.to_list lps))
  in
  if times = [||] then 0. else Util.median times

let class_median samples cls field =
  let xs = Array.of_list (List.filter_map (fun s -> if s.cls = cls then Some (field s) else None) (Array.to_list samples)) in
  if xs = [||] then 0. else Util.median xs

(* The solver-stack metrics over one pass: [samples] from {!run_lp},
   [lps] the LPs they solved. *)
let layer_metrics samples lps =
  let m = Util.metric in
  let exact_total = Util.sum (Array.map (fun s -> s.exact_s) samples) in
  let exact_pivots = Array.fold_left (fun a s -> a + s.exact_pivots) 0 samples in
  let ms f s = f s *. 1e3 in
  let batch_pivots =
    Array.fold_left (fun a s -> if s.cls = "batch" then a + s.exact_pivots else a) 0 samples
  in
  let pairs = operand_pairs lps in
  [ m ~n:(Array.length pairs) "numeric.muladd_ns" "ns" (muladd_ns pairs);
    m "simplex.exact_pivots" "count" (float_of_int exact_pivots);
    m "simplex.exact_us_per_pivot" "us" (if exact_pivots = 0 then 0. else exact_total *. 1e6 /. float_of_int exact_pivots);
    m "simplex.float_pivots" "count" (float_of_int fast_counts.float_pivots);
    m "simplex.exact_fallbacks" "count" (float_of_int fast_counts.fallbacks);
    m "simplex.certified_ratio" "ratio" (Util.ratio fast_counts.certified fast_counts.lps);
    m "lp_model.build_us" "us" (build_us lps);
    m "lp_model.fifo_p3.exact_ms" "ms" (class_median samples "fifo_p3" (ms (fun s -> s.exact_s)));
    m "lp_model.fifo_p8.exact_ms" "ms" (class_median samples "fifo_p8" (ms (fun s -> s.exact_s)));
    m "lp_model.fifo_p12.exact_ms" "ms" (class_median samples "fifo_p12" (ms (fun s -> s.exact_s)));
    m "lp_model.fifo_p8.fast_ms" "ms" (class_median samples "fifo_p8" (ms (fun s -> s.fast_s)));
    m "lp_model.fifo_p12.fast_ms" "ms" (class_median samples "fifo_p12" (ms (fun s -> s.fast_s)));
    m "steady_state.steady_ms" "ms" (class_median samples "steady" (ms (fun s -> s.exact_s)));
    m "steady_state.batch_ms" "ms" (class_median samples "batch" (ms (fun s -> s.exact_s)));
    m "steady_state.batch_pivots" "count" (float_of_int batch_pivots) ]

(* ------------------------------------------------------------------ *)
(* Protocol layer, timed on the workload's own lines                   *)

let protocol_metrics ~lines ~replies =
  let m = Util.metric in
  let each xs f = Util.median (Array.map (fun x -> snd (Util.time (fun () -> f x)) *. 1e6) xs) in
  let reqs = Array.map parse lines in
  let resps = Array.map (fun l -> Result.get_ok (P.parse_response l)) replies in
  [ m ~n:(Array.length lines) "protocol.parse_us" "us" (each lines (fun l -> P.parse_request ~line:1 l));
    m ~n:(Array.length reqs) "protocol.key_us" "us" (each reqs P.request_key);
    m ~n:(Array.length resps) "protocol.render_us" "us" (each resps P.response_to_string);
    m ~n:(Array.length replies) "protocol.parse_response_us" "us" (each replies P.parse_response) ]
