(* Golden pivot-path fixture: one MD5 over the outcomes of the exact and
   float simplex on a seeded corpus.  The exact kernel may change its
   representation, never its answers or its path: the value, point,
   terminal basis and pivot count of every solve are hashed, together
   with what a float terminal basis yields when lifted
   ([solve_with_basis], [certify_basis]) and repaired.  A change of
   digest means some solve took a different pivot or returned a
   different number. *)

module Q = Numeric.Rational
module P = Simplex.Problem
module S = Simplex.Solver
module F = Simplex.Float_solver
module Prng = Numeric.Prng

let expected = "de61a7031153c912fe69951295ceef39"

let buf = Buffer.create (1 lsl 16)
let add fmt = Printf.bprintf buf fmt
let qs a = String.concat "," (Array.to_list (Array.map Q.to_string a))
let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))
let fl x = Printf.sprintf "%Lx" (Int64.bits_of_float x)
let fls a = String.concat "," (Array.to_list (Array.map fl a))

let add_solution tag (s : S.solution) =
  add "%s %s [%s] [%s] %d\n" tag (Q.to_string s.S.value) (qs s.S.point) (ints s.S.basis)
    s.S.pivots

(* Every problem goes through the exact solve, the float solve, and the
   lifts of the float terminal basis. *)
let hash_problem ?neighbour p =
  (match S.solve p with
  | S.Optimal s -> add_solution "optimal" s
  | S.Unbounded -> add "unbounded\n"
  | S.Infeasible -> add "infeasible\n");
  match F.solve p with
  | F.Unbounded -> add "float unbounded\n"
  | F.Infeasible -> add "float infeasible\n"
  | F.Stalled -> add "float stalled\n"
  | F.Optimal f ->
    add "float %s [%s] [%s] %d\n" (fl f.F.value) (fls f.F.point) (ints f.F.basis) f.F.pivots;
    (match S.solve_with_basis p ~basis:f.F.basis with
    | S.Warm_optimal (s, unique) -> add_solution (Printf.sprintf "warm %b" unique) s
    | S.Warm_unbounded -> add "warm unbounded\n"
    | S.Warm_rejected -> add "warm rejected\n");
    (match S.certify_basis p ~basis:f.F.basis with
    | Some s -> add_solution "certified" s
    | None -> add "no certificate\n");
    Option.iter
      (fun q ->
        match F.repair q ~basis:f.F.basis with
        | Some (b, k) -> add "repair [%s] %d\n" (ints b) k
        | None -> add "no repair\n")
      neighbour

let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.int_range rng ~lo:0 ~hi:i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let small_q rng ~lo ~hi ~den =
  Q.of_ints (Prng.int_range rng ~lo ~hi) (Prng.int_range rng ~lo:1 ~hi:den)

let platform rng ~z p =
  Dls.Platform.with_return_ratio ~z
    (List.init p (fun _ -> (small_q rng ~lo:1 ~hi:9 ~den:4, small_q rng ~lo:1 ~hi:12 ~den:3)))

let regimes = [ Q.of_ints 1 2; Q.one; Q.of_int 2 ]

(* LP(2) for p = 2..12 in the three return regimes, for the FIFO, LIFO
   and a random permutation pair, in both port models.  The float basis
   of the FIFO problem is also repaired against the LIFO one. *)
let lp2_corpus rng =
  for p = 2 to 12 do
    List.iter
      (fun z ->
        let pl = platform rng ~z p in
        let scenarios =
          [
            Dls.Scenario.fifo_exn pl (Dls.Fifo.order pl);
            Dls.Scenario.lifo_exn pl (Dls.Lifo.order pl);
            Dls.Scenario.make_exn pl ~sigma1:(shuffle rng p) ~sigma2:(shuffle rng p);
          ]
        in
        List.iter
          (fun model ->
            let problems = List.map (Dls.Lp_model.problem model) scenarios in
            List.iteri
              (fun i lp ->
                add "lp2 p=%d z=%s s=%d\n" p (Q.to_string z) i;
                let neighbour = if i = 0 then Some (List.nth problems 1) else None in
                hash_problem ?neighbour lp)
              problems)
          [ Dls.Lp_model.One_port; Dls.Lp_model.Two_port ])
      regimes
  done

let workload rng k =
  Dls.Workload.make_exn
    (List.init k (fun i ->
         Dls.Workload.load
           ~release:(if i = 0 then Q.zero else small_q rng ~lo:0 ~hi:6 ~den:2)
           ~z:(small_q rng ~lo:1 ~hi:5 ~den:2)
           ~size:(Q.of_int (Prng.int_range rng ~lo:1 ~hi:9))
           ()))

let add_result label = function
  | Error e -> add "%s error %s\n" label (Dls.Errors.to_string e)
  | Ok s -> add "%s %s\n" label s

let multiload_corpus rng =
  for case = 0 to 5 do
    let p = 2 + (case mod 3) in
    let pl = platform rng ~z:(List.nth regimes (case mod 3)) p in
    let w = workload rng (2 + (case mod 2)) in
    add_result "steady"
      (Result.map
         (fun (s : Dls.Steady_state.solved) ->
           Printf.sprintf "%s [%s] %d" (Q.to_string s.period)
             (String.concat ";" (Array.to_list (Array.map qs s.alloc)))
             s.pivots)
         (Dls.Steady_state.solve pl w));
    for depth = 0 to 2 do
      add_result
        (Printf.sprintf "batch depth=%d" depth)
        (Result.map
           (fun (b : Dls.Steady_state.batch) ->
             Printf.sprintf "%s [%s] %d" (Q.to_string b.makespan)
               (String.concat ";" (Array.to_list (Array.map qs b.chunks)))
               b.b_pivots)
           (Dls.Steady_state.solve_batch ~depth pl w))
    done
  done

(* Fractional coefficients, [>=] and [=] rows and negative right-hand
   sides, so that row scaling, orientation, phase 1 and the infeasible
   and unbounded exits all run. *)
let random_corpus rng =
  for _ = 1 to 300 do
    let n = Prng.int_range rng ~lo:1 ~hi:5 and m = Prng.int_range rng ~lo:1 ~hi:6 in
    let coeff () = small_q rng ~lo:(-6) ~hi:6 ~den:6 in
    let row () =
      let coeffs = Array.init n (fun _ -> coeff ()) in
      let rel =
        match Prng.int_range rng ~lo:0 ~hi:8 with 0 | 1 -> P.Ge | 2 -> P.Eq | _ -> P.Le
      in
      P.constr coeffs rel (small_q rng ~lo:(-10) ~hi:10 ~den:3)
    in
    let dir = if Prng.int_range rng ~lo:0 ~hi:1 = 0 then P.Maximize else P.Minimize in
    let objective = Array.init n (fun _ -> coeff ()) in
    let p = P.make dir objective (List.init m (fun _ -> row ())) in
    add "random n=%d m=%d\n" n m;
    hash_problem p
  done

let digest () =
  Buffer.clear buf;
  lp2_corpus (Prng.create ~seed:2006);
  multiload_corpus (Prng.create ~seed:2007);
  random_corpus (Prng.create ~seed:2008);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_golden () = Alcotest.(check string) "pivot-path digest" expected (digest ())

let () =
  Alcotest.run "golden"
    [ ("simplex.golden", [ Alcotest.test_case "pivot-path digest" `Quick test_golden ]) ]
