module Q = Numeric.Rational
open Q.Infix

let fold_workers p f init =
  let acc = ref init in
  for i = 0 to Platform.size p - 1 do
    acc := f !acc (Platform.get p i)
  done;
  !acc

let port_bound p =
  let best =
    fold_workers p
      (fun acc wk ->
        let cd = wk.Platform.c +/ wk.Platform.d in
        match acc with Some m when m <=/ cd -> acc | _ -> Some cd)
      None
  in
  match best with Some m -> Q.inv m | None -> assert false

let chain_time wk = wk.Platform.c +/ wk.Platform.w +/ wk.Platform.d
let chain_bound p = fold_workers p (fun acc wk -> acc +/ Q.inv (chain_time wk)) Q.zero
let upper p = Q.min (port_bound p) (chain_bound p)

let lower p =
  fold_workers p (fun acc wk -> Q.max acc (Q.inv (chain_time wk))) Q.zero

(* ------------------------------------------------------------------ *)
(* Per-ordering bounds for branch-and-bound pruning.

   Each LP row [Σ cost_j α_j <= 1] together with the chain caps
   [α_j <= 1/(c_j + w_j + d_j)] is a relaxation of the scheduling
   polytope, and maximizing [Σ α_j] over one row plus box constraints is
   a fractional knapsack: fill the cheapest coefficients first.  The
   minimum over rows is therefore a valid upper bound on the LP optimum —
   computed in exact rationals, with no simplex run. *)

(* max Σ α  s.t.  Σ costs.(j) α_j <= 1, 0 <= α_j <= caps.(j). *)
let row_knapsack costs caps =
  let n = Array.length costs in
  let idx = Array.init n Fun.id in
  Array.sort (fun a b -> Q.compare costs.(a) costs.(b)) idx;
  let budget = ref Q.one in
  let total = ref Q.zero in
  Array.iter
    (fun j ->
      let cost = costs.(j) in
      if Q.sign cost = 0 then total := !total +/ caps.(j)
      else if Q.sign !budget > 0 then begin
        let take = Q.min caps.(j) (!budget // cost) in
        total := !total +/ take;
        budget := !budget -/ (take */ cost)
      end)
    idx;
  !total

let scenario_bound ?(model = Lp_model.One_port) (s : Scenario.t) =
  let q = Scenario.num_enrolled s in
  let wk k = Platform.get s.Scenario.platform s.Scenario.sigma1.(k) in
  let return_pos =
    Array.init q (fun k -> Scenario.return_position s s.Scenario.sigma1.(k))
  in
  let caps = Array.init q (fun k -> Q.inv (chain_time (wk k))) in
  let best = ref Q.zero in
  let first = ref true in
  let consider b =
    if !first || b </ !best then begin
      best := b;
      first := false
    end
  in
  for k = 0 to q - 1 do
    let costs =
      Array.init q (fun j ->
          let w = wk j in
          let acc = ref Q.zero in
          if j <= k then acc := !acc +/ w.Platform.c;
          if return_pos.(j) >= return_pos.(k) then acc := !acc +/ w.Platform.d;
          if j = k then acc := !acc +/ w.Platform.w;
          !acc)
    in
    consider (row_knapsack costs caps)
  done;
  (match model with
  | Lp_model.Two_port -> ()
  | Lp_model.One_port ->
    let costs = Array.init q (fun j -> (wk j).Platform.c +/ (wk j).Platform.d) in
    consider (row_knapsack costs caps));
  !best

(* Float mirror of [scenario_bound], used as a pre-screen: an enumerator
   first checks the (cheap) float bound against the incumbent with a
   safety margin, and only computes the exact rational bound — the one
   actually allowed to prune — when pruning looks possible.  Errors in
   either direction are harmless: a float bound that looks too high just
   skips the exact confirmation (the LP is solved as if never pruned), a
   float bound that looks too low wastes one exact bound computation. *)
let row_knapsack_float costs caps =
  let n = Array.length costs in
  let idx = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare costs.(a) costs.(b)) idx;
  let budget = ref 1.0 in
  let total = ref 0.0 in
  Array.iter
    (fun j ->
      let cost = costs.(j) in
      if cost <= 0.0 then total := !total +. caps.(j)
      else if !budget > 0.0 then begin
        let take = Float.min caps.(j) (!budget /. cost) in
        total := !total +. take;
        budget := !budget -. (take *. cost)
      end)
    idx;
  !total

let scenario_bound_float ?(model = Lp_model.One_port) (s : Scenario.t) =
  let q = Scenario.num_enrolled s in
  (* Each parameter converted once: this screen runs on every candidate
     of an enumeration. *)
  let field f =
    Array.init q (fun k ->
        Q.to_float (f (Platform.get s.Scenario.platform s.Scenario.sigma1.(k))))
  in
  let c = field (fun wk -> wk.Platform.c) in
  let w = field (fun wk -> wk.Platform.w) in
  let d = field (fun wk -> wk.Platform.d) in
  let return_pos =
    Array.init q (fun k -> Scenario.return_position s s.Scenario.sigma1.(k))
  in
  let caps = Array.init q (fun k -> 1.0 /. (c.(k) +. w.(k) +. d.(k))) in
  let best = ref infinity in
  for k = 0 to q - 1 do
    let costs =
      Array.init q (fun j ->
          let acc = ref 0.0 in
          if j <= k then acc := !acc +. c.(j);
          if return_pos.(j) >= return_pos.(k) then acc := !acc +. d.(j);
          if j = k then acc := !acc +. w.(j);
          !acc)
    in
    best := Float.min !best (row_knapsack_float costs caps)
  done;
  (match model with
  | Lp_model.Two_port -> ()
  | Lp_model.One_port ->
    let costs = Array.init q (fun j -> c.(j) +. d.(j)) in
    best := Float.min !best (row_knapsack_float costs caps));
  !best

let prefix_bound ?(model = Lp_model.One_port) ~discipline platform ~prefix
    ~remaining =
  let qp = Array.length prefix in
  let all = Array.append prefix remaining in
  let n = Array.length all in
  if n = 0 then invalid_arg "Bounds.prefix_bound: no workers";
  let wk j = Platform.get platform all.(j) in
  let caps = Array.init n (fun j -> Q.inv (chain_time (wk j))) in
  let best = ref Q.zero in
  let first = ref true in
  let consider b =
    if !first || b </ !best then begin
      best := b;
      first := false
    end
  in
  (* Prefix deadlines: exact under any completion (cf. the LP rows built
     by [Search.bound_problem]).  FIFO: position k waits for sends up to
     k and the returns of positions >= k, which include every unplaced
     worker.  LIFO: sends and returns both range over positions <= k.
     Free sigma2: only the worker's own return is guaranteed. *)
  for k = 0 to qp - 1 do
    let costs =
      Array.init n (fun j ->
          let w = wk j in
          let acc = ref Q.zero in
          (match discipline with
          | `Fifo ->
            if j <= k then acc := !acc +/ w.Platform.c;
            if j >= k || j >= qp then acc := !acc +/ w.Platform.d
          | `Lifo ->
            if j <= k then acc := !acc +/ (w.Platform.c +/ w.Platform.d)
          | `Free ->
            if j <= k then acc := !acc +/ w.Platform.c;
            if j = k then acc := !acc +/ w.Platform.d);
          if j = k then acc := !acc +/ w.Platform.w;
          !acc)
    in
    consider (row_knapsack costs caps)
  done;
  (* Unplaced workers, optimistic completion: the whole prefix's sends
     (plus, under LIFO, its returns) precede the worker's own chain. *)
  for k = qp to n - 1 do
    let costs =
      Array.init n (fun j ->
          if j < qp then
            let w = wk j in
            match discipline with
            | `Fifo | `Free -> w.Platform.c
            | `Lifo -> w.Platform.c +/ w.Platform.d
          else if j = k then chain_time (wk j)
          else Q.zero)
    in
    consider (row_knapsack costs caps)
  done;
  (match model with
  | Lp_model.Two_port -> ()
  | Lp_model.One_port ->
    let costs = Array.init n (fun j -> (wk j).Platform.c +/ (wk j).Platform.d) in
    consider (row_knapsack costs caps));
  !best
