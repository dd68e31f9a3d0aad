(* Seeded inputs: the LP corpus of [lp-cold] and the request streams of
   the fleet workloads.  Everything here is a pure function of the seed,
   and the program only ever sees the generated inputs. *)

module Q = Numeric.Rational
module P = Service.Protocol
module R = Numeric.Prng

type regime = Below | One | Above

let regimes = [| Below; One; Above |]
let pick rng a = a.(R.int_range rng ~lo:0 ~hi:(Array.length a - 1))

(* The three z-regimes of the paper (d = z c): z < 1, z = 1, z > 1. *)
let z_of rng = function
  | Below -> pick rng [| Q.of_ints 1 4; Q.of_ints 1 3; Q.of_ints 1 2; Q.of_ints 2 3; Q.of_ints 3 4 |]
  | One -> Q.one
  | Above -> pick rng [| Q.of_ints 4 3; Q.of_ints 3 2; Q.of_int 2; Q.of_int 3 |]

let platform rng ~p ~regime =
  let z = z_of rng regime in
  Dls.Platform.with_return_ratio ~z
    (List.init p (fun _ ->
         let c = Q.of_ints (R.int_range rng ~lo:2 ~hi:9) 4 in
         let w = Q.of_ints (R.int_range rng ~lo:4 ~hi:20) 2 in
         (c, w)))

let workload rng ~loads =
  Dls.Workload.make_exn
    (List.init loads (fun k ->
         let release = if k = 0 then Q.zero else Q.of_ints (R.int_range rng ~lo:0 ~hi:4) 2 in
         let z = if R.int_range rng ~lo:0 ~hi:2 = 0 then None else Some (z_of rng (pick rng regimes)) in
         Dls.Workload.load ~size:(Q.of_int (R.int_range rng ~lo:1 ~hi:4)) ~release ?z ()))

(* ------------------------------------------------------------------ *)
(* The LP corpus                                                       *)

let solve_req ?(fast = true) ?(order = P.Fifo) ?load platform =
  P.Solve
    { s_platform = platform; s_order = order; s_model = Dls.Lp_model.One_port; s_fast = fast;
      s_load = load }

let multi_req ?depth mode platform workload =
  P.Solve_multi { u_platform = platform; u_workload = workload; u_mode = mode; u_depth = depth }

(* One block of the corpus: the class mix, in counts.  Blocks are
   shuffled internally, so any prefix of whole blocks has exactly this
   mix and a percentile never straddles a class boundary by chance.
   FIFO LP(2) scenarios dominate (p = 3, 5, 8, 12, the z-regime cycling
   inside each size), then steady-state multi-load LPs, then a small
   slice of two-load batch LPs on 3-4 workers.  One batch LP costs as
   much as a hundred others, so one in 160 keeps it from taking most of
   a run. *)
let block = [ (`Fifo 3, 24); (`Fifo 5, 24); (`Fifo 8, 64); (`Fifo 12, 32); (`Steady, 15); (`Batch, 1) ]
let block_size = List.fold_left (fun a (_, n) -> a + n) 0 block

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = R.int_range rng ~lo:0 ~hi:i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Block [b] of the corpus, as the requests a client would send: FIFO
   [solve], and [solve-multi] in steady mode or as a batch at interleave
   depth 0 (one LP per item).  Each block has its own generator, so the
   corpus can grow a block at a time and stays a function of the seed. *)
let lp_block ~seed b =
  let rng = R.create ~seed:((seed * 7919) + (b * 104723) + 11) in
  let k = ref 0 in
  let one kind =
    incr k;
    let regime = regimes.(!k mod 3) in
    match kind with
    | `Fifo p -> solve_req (platform rng ~p ~regime)
    | `Steady ->
      let p = R.int_range rng ~lo:3 ~hi:5 in
      let platform = platform rng ~p ~regime in
      multi_req P.Steady platform (workload rng ~loads:(R.int_range rng ~lo:2 ~hi:3))
    | `Batch ->
      let p = R.int_range rng ~lo:3 ~hi:4 in
      let platform = platform rng ~p ~regime in
      multi_req ~depth:0 P.Batch platform (workload rng ~loads:2)
  in
  let b = Array.of_list (List.concat_map (fun (c, n) -> List.init n (fun _ -> one c)) block) in
  shuffle rng b;
  b

(* ------------------------------------------------------------------ *)
(* Fleet request streams                                               *)

(* One block of the service mix: mostly [solve] on the corpus platform
   generator, with fixed shares of exact-mode, LIFO and [load=]
   requests, then [solve-multi] (steady), [simulate] and [check]. *)
let fleet_block =
  [ (`Solve_fast, 10); (`Solve_exact, 2); (`Solve_lifo, 2); (`Solve_load, 1);
    (`Multi, 2); (`Simulate, 2); (`Check, 1) ]

(* [drawn.(i)] counts the requests of kind [i] made so far.  Each kind
   cycles through the three z-regimes and, every three requests, through
   its platform sizes, so every stretch of a stream has the same
   size-and-regime mix whatever the seed; only the platforms' speeds are
   random. *)
type stream = { rng : R.t; seen : (string, unit) Hashtbl.t; drawn : int array; mutable pending : P.request list }

let stream ~seed = { rng = R.create ~seed:(seed * 104729 + 3); seen = Hashtbl.create 4096; drawn = Array.make 7 0; pending = [] }

let kind_index = function
  | `Solve_fast -> 0
  | `Solve_exact -> 1
  | `Solve_lifo -> 2
  | `Solve_load -> 3
  | `Multi -> 4
  | `Simulate -> 5
  | `Check -> 6

let fleet_request st kind =
  let rng = st.rng in
  let i = kind_index kind in
  let n = st.drawn.(i) in
  st.drawn.(i) <- n + 1;
  let regime = regimes.(n mod 3) in
  let size a = a.(n / 3 mod Array.length a) in
  let solve ?fast ?order ?load p = solve_req ?fast ?order ?load (platform rng ~p ~regime) in
  match kind with
  | `Solve_fast -> solve (size [| 3; 5; 8; 12 |])
  | `Solve_exact -> solve ~fast:false (size [| 3; 5; 8 |])
  | `Solve_lifo -> solve ~order:P.Lifo (size [| 3; 5; 8 |])
  | `Solve_load -> solve ~load:(Q.of_int (R.int_range rng ~lo:100 ~hi:10_000)) (size [| 3; 5; 8 |])
  | `Multi ->
    let platform = platform rng ~p:(size [| 3; 4; 5 |]) ~regime in
    multi_req P.Steady platform (workload rng ~loads:(R.int_range rng ~lo:2 ~hi:3))
  | `Simulate ->
    P.Simulate
      { m_platform = platform rng ~p:(size [| 3; 5; 8 |]) ~regime; m_order = P.Fifo;
        m_items = R.int_range rng ~lo:100 ~hi:1000; m_faults = None; m_replan = P.Replan_auto }
  | `Check -> P.Check (platform rng ~p:(size [| 3; 5 |]) ~regime)

(* The next request whose key the stream has not produced before. *)
let rec next st =
  match st.pending with
  | [] ->
    let b = Array.of_list (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) fleet_block) in
    shuffle st.rng b;
    st.pending <- List.map (fun c -> fleet_request st c) (Array.to_list b);
    next st
  | r :: rest ->
    st.pending <- rest;
    let key = P.request_key r in
    if Hashtbl.mem st.seen key then next st
    else begin
      Hashtbl.add st.seen key ();
      r
    end

let take st n = Array.init n (fun _ -> next st)

(* Zipf ranks over [n] items with exponent [s]: rank r has weight
   (r+1)^-s. *)
let zipf ~seed ~n ~s count =
  let rng = R.create ~seed:(seed * 15485863 + 5) in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. (float_of_int (r + 1) ** s));
    cdf.(r) <- !acc
  done;
  Array.init count (fun _ ->
      let u = R.float rng *. !acc in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      !lo)

(* Poisson arrival offsets (seconds) at [rate] per second. *)
let arrivals ~seed ~rate count =
  let rng = R.create ~seed:(seed * 32452843 + 7) in
  let t = ref 0. in
  Array.init count (fun _ ->
      t := !t -. (log (1. -. R.float rng) /. rate);
      !t)
