module Q = Numeric.Rational

type model = One_port | Two_port

type solved = {
  scenario : Scenario.t;
  model : model;
  rho : Q.t;
  alpha : Q.t array;
  idle : Q.t array;
  pivots : int;
  basis : int array;
}

(* ------------------------------------------------------------------ *)
(* Fast-pipeline counters.  Process-wide atomics: enumeration runs across
   domains, and the numbers are diagnostics, so relaxed increments are
   fine. *)

type pipeline_stats = {
  float_wins : int;
  warm_wins : int;
  exact_fallbacks : int;
  pruned : int;
  float_pivots : int;
  exact_pivots : int;
}

let float_wins = Atomic.make 0
let warm_wins = Atomic.make 0
let exact_fallbacks = Atomic.make 0
let pruned_nodes = Atomic.make 0
let float_pivots = Atomic.make 0
let exact_pivots = Atomic.make 0
let bump counter n = ignore (Atomic.fetch_and_add counter n)

let pipeline_stats () =
  {
    float_wins = Atomic.get float_wins;
    warm_wins = Atomic.get warm_wins;
    exact_fallbacks = Atomic.get exact_fallbacks;
    pruned = Atomic.get pruned_nodes;
    float_pivots = Atomic.get float_pivots;
    exact_pivots = Atomic.get exact_pivots;
  }

let reset_pipeline_stats () =
  Atomic.set float_wins 0;
  Atomic.set warm_wins 0;
  Atomic.set exact_fallbacks 0;
  Atomic.set pruned_nodes 0;
  Atomic.set float_pivots 0;
  Atomic.set exact_pivots 0

let note_pruned n = bump pruned_nodes n

let pp_pipeline_stats fmt s =
  Format.fprintf fmt
    "@[<v>float-path wins:  %d@,warm-start wins:  %d@,exact fallbacks:  %d@,\
     pruned nodes:     %d@,float pivots:     %d@,exact pivots:     %d@]"
    s.float_wins s.warm_wins s.exact_fallbacks s.pruned s.float_pivots
    s.exact_pivots

let problem model (s : Scenario.t) =
  let q = Scenario.num_enrolled s in
  let wk k = Platform.get s.Scenario.platform s.Scenario.sigma1.(k) in
  (* Position of each enrolled worker (by sigma1 slot) in sigma2. *)
  let return_pos =
    Array.init q (fun k -> Scenario.return_position s s.Scenario.sigma1.(k))
  in
  (* Variables: alpha_0..alpha_{q-1} then x_0..x_{q-1}, sigma1 order. *)
  let nvars = 2 * q in
  let names =
    Array.init nvars (fun v ->
        if v < q then "alpha_" ^ (wk v).Platform.name else "x_" ^ (wk (v - q)).Platform.name)
  in
  let objective =
    Array.init nvars (fun v -> if v < q then Q.one else Q.zero)
  in
  let deadline k =
    let coeffs = Array.make nvars Q.zero in
    for j = 0 to q - 1 do
      let contrib = ref Q.zero in
      (* data transfers the master performs no later than P_{sigma1(k)}'s *)
      if j <= k then contrib := Q.add !contrib (wk j).Platform.c;
      (* result transfers no earlier than P's in sigma2 order *)
      if return_pos.(j) >= return_pos.(k) then
        contrib := Q.add !contrib (wk j).Platform.d;
      if j = k then contrib := Q.add !contrib (wk j).Platform.w;
      coeffs.(j) <- !contrib
    done;
    coeffs.(q + k) <- Q.one;
    Simplex.Problem.constr coeffs Simplex.Problem.Le Q.one
  in
  let constraints = List.init q deadline in
  let constraints =
    match model with
    | Two_port -> constraints
    | One_port ->
      let coeffs = Array.make nvars Q.zero in
      for j = 0 to q - 1 do
        coeffs.(j) <- Q.add (wk j).Platform.c (wk j).Platform.d
      done;
      constraints @ [ Simplex.Problem.constr coeffs Simplex.Problem.Le Q.one ]
  in
  Simplex.Problem.make ~names Simplex.Problem.Maximize objective constraints

(* Certify [sol] independently and repackage it as a [solved] record. *)
let accept model (s : Scenario.t) p (sol : Simplex.Solver.solution) =
  match Simplex.Certify.check p sol with
  | Error msgs ->
    (* Unreachable unless the solver itself is wrong; surfaced as a
       typed error rather than an assertion so callers can log it. *)
    Errors.invalid "LP certification failed: %s" (String.concat "; " msgs)
  | Ok () ->
    let n = Platform.size s.Scenario.platform in
    let alpha = Array.make n Q.zero in
    Array.iteri
      (fun k i -> alpha.(i) <- sol.Simplex.Solver.point.(k))
      s.Scenario.sigma1;
    (* [idle] is canonical, not read off the simplex point: it is the gap
       between the worker's compute finish and its return start in the
       canonical packed timeline (sends packed from 0, returns packed
       against the horizon — exactly [Schedule.of_solved]'s layout).  The
       LP's own idle variable duplicates its row's slack column, so the
       split between them depends on the pivot path; the gap depends only
       on [alpha], which keeps the two solver pipelines bit-identical. *)
    let idle = Array.make n Q.zero in
    let wk i = Platform.get s.Scenario.platform i in
    let q = Array.length s.Scenario.sigma1 in
    (* [sent.(k)]: send time of the first [k + 1] chunks in sigma1 order;
       [returned.(t)]: return time of the results from return position
       [t] on.  The gap of the worker in sigma1 slot [k] is
       [1 - sent.(k) - returned.(its return position) - alpha w]. *)
    let sent = Array.make q Q.zero in
    let acc = ref Q.zero in
    Array.iteri
      (fun k i ->
        acc := Q.add !acc (Q.mul alpha.(i) (wk i).Platform.c);
        sent.(k) <- !acc)
      s.Scenario.sigma1;
    let returned = Array.make (q + 1) Q.zero in
    for t = q - 1 downto 0 do
      let i = s.Scenario.sigma2.(t) in
      returned.(t) <- Q.add returned.(t + 1) (Q.mul alpha.(i) (wk i).Platform.d)
    done;
    Array.iteri
      (fun k i ->
        if Q.sign alpha.(i) > 0 then
          idle.(i) <-
            Q.sub
              (Q.sub (Q.sub Q.one sent.(k)) returned.(Scenario.return_position s i))
              (Q.mul alpha.(i) (wk i).Platform.w))
      s.Scenario.sigma1;
    Ok
      {
        scenario = s;
        model;
        rho = sol.Simplex.Solver.value;
        alpha;
        idle;
        pivots = sol.Simplex.Solver.pivots;
        basis = sol.Simplex.Solver.basis;
      }

let solve ?(model = One_port) (s : Scenario.t) =
  let p = problem model s in
  match Simplex.Solver.solve_result p with
  | Error e -> Error (Errors.of_solver e)
  | Ok sol ->
    bump exact_pivots sol.Simplex.Solver.pivots;
    accept model s p sol

let solve_exn ?model s = Errors.get_exn (solve ?model s)

(* The certified fast pipeline.  A candidate basis (the caller's warm
   start, else the float solver's terminal basis) is handed to
   {!Simplex.Solver.certify_basis}, which runs one exact factorization
   restricted to the basis columns and accepts only when every
   non-basic reduced cost is strictly negative — proving the optimal
   point unique, and therefore equal to the cold solve's.  Anything
   else (defective basis, float stall, alternate optima) falls back to
   the canonical exact solve, so the result is bit-identical to
   {!solve} by construction. *)
let solve_fast ?(model = One_port) ?warm ?(max_float_pivots = 100_000)
    (s : Scenario.t) =
  let p = problem model s in
  let certified =
    match warm with
    | None -> None
    | Some basis -> (
      match Simplex.Solver.certify_basis p ~basis with
      | Some sol ->
        bump warm_wins 1;
        Some sol
      | None -> None)
  in
  let certified =
    match certified with
    | Some _ -> certified
    | None -> (
      match Simplex.Float_solver.solve ~max_pivots:max_float_pivots p with
      | Simplex.Float_solver.Optimal fsol -> (
        bump float_pivots fsol.Simplex.Float_solver.pivots;
        (* The certificate is deterministic in (problem, basis): when the
           float solver lands on the warm basis that was just rejected,
           re-certifying it can only fail again. *)
        let fbasis = fsol.Simplex.Float_solver.basis in
        if warm = Some fbasis then None
        else
          match Simplex.Solver.certify_basis p ~basis:fbasis with
          | Some sol ->
            bump float_wins 1;
            Some sol
          | None -> None)
      | Simplex.Float_solver.Unbounded | Simplex.Float_solver.Infeasible
      | Simplex.Float_solver.Stalled ->
        None)
  in
  match certified with
  | Some sol ->
    bump exact_pivots sol.Simplex.Solver.pivots;
    accept model s p sol
  | None ->
    bump exact_fallbacks 1;
    solve ~model s

let solve_fast_exn ?model ?warm ?max_float_pivots s =
  Errors.get_exn (solve_fast ?model ?warm ?max_float_pivots s)

(* ------------------------------------------------------------------ *)
(* LRU-memoized solving.                                              *)

(* Canonical fingerprint of everything [solve] depends on.  Rationals
   print in lowest terms with positive denominator ([Q.to_string] is
   injective on the normalized representation), so structural equality
   of scenarios coincides with string equality of keys. *)
let scenario_key model (s : Scenario.t) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (match model with One_port -> "1p|" | Two_port -> "2p|");
  Array.iter
    (fun (wk : Platform.worker) ->
      Buffer.add_string buf wk.Platform.name;
      Buffer.add_char buf ':';
      Buffer.add_string buf (Q.to_string wk.Platform.c);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Q.to_string wk.Platform.w);
      Buffer.add_char buf ':';
      Buffer.add_string buf (Q.to_string wk.Platform.d);
      Buffer.add_char buf ';')
    s.Scenario.platform.Platform.workers;
  Buffer.add_char buf '|';
  Array.iter
    (fun i ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ',')
    s.Scenario.sigma1;
  Buffer.add_char buf '|';
  Array.iter
    (fun i ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ',')
    s.Scenario.sigma2;
  Buffer.contents buf

(* Distance between two scenario fingerprints, for the nearest-neighbor
   warm-repair probe: the number of differing worker [name:c:w:d]
   fields, provided the keys describe the same model, the same worker
   count and the same permutation pair — otherwise [None]
   (incomparable: the LPs have different shapes or different row
   semantics, so a cached basis cannot even be installed).  Purely
   syntactic on the canonical key, so it never needs the scenarios
   themselves. *)
let tail_start k =
  match String.rindex_opt k '|' with
  | Some i when i > 0 -> Option.value (String.rindex_from_opt k (i - 1) '|') ~default:0
  | _ -> 0

let scenario_key_distance a =
  (* Nearly every probe made during an enumeration meets keys with other
     permutations: compare that tail ("|sigma1|sigma2") first, without
     allocating, and split only the keys that pass.  [a]'s tail is found
     once per probe, not once per cache entry. *)
  let ta = tail_start a in
  let len = String.length a - ta in
  fun b ->
    let tb = tail_start b in
    let rec same_tail d = d = len || (a.[ta + d] = b.[tb + d] && same_tail (d + 1)) in
    let split4 k =
      match String.split_on_char '|' k with
      | [ model; workers; s1; s2 ] -> Some (model, workers, s1, s2)
      | _ -> None
    in
    if len <> String.length b - tb || not (same_tail 0) then None
    else
      match (split4 a, split4 b) with
      | Some (ma, wa, s1a, s2a), Some (mb, wb, s1b, s2b)
        when ma = mb && s1a = s1b && s2a = s2b ->
        let fa = String.split_on_char ';' wa in
        let fb = String.split_on_char ';' wb in
        if List.length fa <> List.length fb then None
        else
          Some (List.fold_left2 (fun d x y -> if x = y then d else d + 1) 0 fa fb)
      | _ -> None

(* ------------------------------------------------------------------ *)
(* Incremental re-solve counters (same discipline as the pipeline
   stats above: process-wide relaxed atomics, diagnostics only). *)

type resolve_stats = {
  probes : int;
  repair_wins : int;
  repair_fallbacks : int;
  repair_pivots : int;
}

let neighbor_probes = Atomic.make 0
let repair_wins = Atomic.make 0
let repair_fallbacks = Atomic.make 0
let repair_pivot_count = Atomic.make 0

let resolve_stats () =
  {
    probes = Atomic.get neighbor_probes;
    repair_wins = Atomic.get repair_wins;
    repair_fallbacks = Atomic.get repair_fallbacks;
    repair_pivots = Atomic.get repair_pivot_count;
  }

let reset_resolve_stats () =
  Atomic.set neighbor_probes 0;
  Atomic.set repair_wins 0;
  Atomic.set repair_fallbacks 0;
  Atomic.set repair_pivot_count 0

let pp_resolve_stats fmt s =
  Format.fprintf fmt
    "@[<v>neighbor probes:  %d@,repair wins:      %d@,repair fallbacks: %d@,\
     repair pivots:    %d@]"
    s.probes s.repair_wins s.repair_fallbacks s.repair_pivots

(* Warm repair from a neighbouring scenario's optimal basis.  The
   cheapest possibility first: for a small parameter nudge the old
   basis is very often still optimal, and [certify_basis] proves it in
   one restricted exact factorization (zero pivots).  Otherwise a
   bounded float dual-simplex repair walks from the old basis to a new
   terminal basis, which must then pass the same exact certification.
   [None] means "no certified answer this way" — never a wrong one —
   and the caller falls back to the ordinary pipeline, which keeps
   every cached answer bit-identical to [solve]'s by construction. *)
let solve_from_neighbor model s (near : solved) =
  bump neighbor_probes 1;
  let p = problem model s in
  let certified ~pivots basis =
    match Simplex.Solver.certify_basis p ~basis with
    | None -> None
    | Some sol -> (
      match accept model s p sol with
      | Ok solved ->
        bump repair_wins 1;
        bump repair_pivot_count pivots;
        Some solved
      | Error _ -> None)
  in
  match certified ~pivots:0 near.basis with
  | Some _ as hit -> hit
  | None -> (
    match Simplex.Float_solver.repair p ~basis:near.basis with
    | None -> None
    | Some (basis, pivots) ->
      if basis = near.basis then None else certified ~pivots basis)

let default_cache_capacity = 4096
let cache : (string, solved) Parallel.Lru.t ref =
  ref (Parallel.Lru.create ~capacity:default_cache_capacity ())

(* Every branch produces the same record bit-for-bit (see [solve_fast]
   and [solve_from_neighbor]), so the cache key does not need to
   distinguish them and a hit may have been computed by any pipeline.
   [warm] is a hint, not an input: it never changes the answer, only
   the pivot count.  Single-flight: concurrent misses on one scenario
   (server workers fielding identical requests, enumeration domains
   meeting on a shared prefix) run one solve; the others join it.

   A miss first probes the cache for the nearest already solved
   neighbor — same model, same permutations, same worker count, fewest
   differing worker fields — and tries to repair that scenario's
   optimal basis into this one's (certify-first, then bounded dual
   simplex + certification).  Certification failure of any kind falls
   back to the ordinary [fast] pipeline. *)
let solve_cached ?model ?(fast = true) ?warm s =
  let model_v = Option.value model ~default:One_port in
  let key = scenario_key model_v s in
  Parallel.Lru.find_or_compute !cache key (fun () ->
      let full () =
        if fast then solve_fast_exn ?model ?warm s else solve_exn ?model s
      in
      if not fast then full ()
      else
        match
          Parallel.Lru.find_nearest !cache ~score:(scenario_key_distance key)
        with
        | None -> full ()
        | Some (_, near) -> (
          match solve_from_neighbor model_v s near with
          | Some solved -> solved
          | None ->
            bump repair_fallbacks 1;
            full ()))

let cache_stats () = Parallel.Lru.stats !cache

let reset_cache ?(capacity = default_cache_capacity) () =
  cache := Parallel.Lru.create ~capacity ()

(* ------------------------------------------------------------------ *)

let estimate_rho ?(model = One_port) s =
  match Simplex.Float_solver.solve (problem model s) with
  | Simplex.Float_solver.Optimal sol -> Some sol.Simplex.Float_solver.value
  | Simplex.Float_solver.Unbounded | Simplex.Float_solver.Infeasible
  | Simplex.Float_solver.Stalled ->
    None

let enrolled_workers sol =
  let out = ref [] in
  Array.iteri (fun i a -> if Q.sign a > 0 then out := i :: !out) sol.alpha;
  List.rev !out

type constraint_status = { label : string; slack : Q.t; binding : bool }

let constraint_report sol =
  let s = sol.scenario in
  let platform = s.Scenario.platform in
  let wk i = Platform.get platform i in
  let status label slack = { label; slack; binding = Q.is_zero slack } in
  let deadline i =
    (* the worker's whole chain: wait + receive + compute + gap + return
       block; the gap is the LP idle variable plus the row's own slack,
       i.e. 1 - (chain without idle) *)
    let spos = Scenario.send_position s i in
    let rpos = Scenario.return_position s i in
    let chain = ref Q.zero in
    Array.iter
      (fun j ->
        let w = wk j in
        if Scenario.send_position s j <= spos then
          chain := Q.add !chain (Q.mul sol.alpha.(j) w.Platform.c);
        if Scenario.return_position s j >= rpos then
          chain := Q.add !chain (Q.mul sol.alpha.(j) w.Platform.d);
        if j = i then chain := Q.add !chain (Q.mul sol.alpha.(j) w.Platform.w))
      s.Scenario.sigma1;
    status
      (Printf.sprintf "deadline(%s)" (wk i).Platform.name)
      (Q.sub Q.one !chain)
  in
  let rows = List.map deadline (Array.to_list s.Scenario.sigma1) in
  match sol.model with
  | Two_port -> rows
  | One_port ->
    let used =
      Q.sum_array
        (Array.map
           (fun i ->
             Q.mul sol.alpha.(i)
               (Q.add (wk i).Platform.c (wk i).Platform.d))
           s.Scenario.sigma1)
    in
    rows @ [ status "one-port" (Q.sub Q.one used) ]

let time_for_load sol ~load =
  if Q.sign sol.rho <= 0 then invalid_arg "Lp_model.time_for_load: zero throughput";
  Q.div load sol.rho

let pp fmt sol =
  Format.fprintf fmt "@[<v>%s model, rho = %s (~%.6g)@,%a@,loads:@,"
    (match sol.model with One_port -> "one-port" | Two_port -> "two-port")
    (Q.to_string sol.rho) (Q.to_float sol.rho) Scenario.pp sol.scenario;
  Array.iteri
    (fun i a ->
      if Q.sign a > 0 then
        Format.fprintf fmt "  %-6s alpha=%-12s idle=%s@,"
          (Platform.get sol.scenario.Scenario.platform i).Platform.name
          (Q.to_string a)
          (Q.to_string sol.idle.(i)))
    sol.alpha;
  Format.fprintf fmt "@]"
