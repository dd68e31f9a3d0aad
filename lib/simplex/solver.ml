module Q = Numeric.Rational
module Exact = Solver_core.Make (Row_kernel.Exact)

type solution = { value : Q.t; point : Q.t array; pivots : int; basis : int array }
type outcome = Optimal of solution | Unbounded | Infeasible

type warm_outcome =
  | Warm_optimal of solution * bool
  | Warm_unbounded
  | Warm_rejected

type error = Error_unbounded | Error_infeasible

exception Error of error

let string_of_error = function
  | Error_unbounded -> "unbounded problem"
  | Error_infeasible -> "infeasible problem"

let pp_error fmt e = Format.pp_print_string fmt (string_of_error e)

let of_core (s : Exact.solution) =
  {
    value = s.Exact.value;
    point = s.Exact.point;
    pivots = s.Exact.pivots;
    basis = s.Exact.basis;
  }

let solve p =
  (* With exact arithmetic Bland's rule terminates: the cap is a pure
     formality, set far beyond any reachable pivot count. *)
  match Exact.solve ~max_pivots:max_int p with
  | Exact.Optimal s -> Optimal (of_core s)
  | Exact.Unbounded -> Unbounded
  | Exact.Infeasible -> Infeasible
  | Exact.Stalled -> assert false

let solve_with_basis p ~basis =
  match Exact.solve_with_basis ~max_pivots:max_int p ~basis with
  | Exact.Warm_optimal (s, unique) -> Warm_optimal (of_core s, unique)
  | Exact.Warm_unbounded -> Warm_unbounded
  | Exact.Warm_rejected -> Warm_rejected
  | Exact.Warm_stalled -> assert false

let solve_result p =
  match solve p with
  | Optimal s -> Ok s
  | Unbounded -> Result.Error Error_unbounded
  | Infeasible -> Result.Error Error_infeasible

(* ------------------------------------------------------------------ *)
(* Basis-block certificate.

   [certify_basis] answers one question: is [basis] the unique optimal
   basis of [p]?  If so it returns the (unique) optimal solution without
   running the simplex method at all: one exact solve on the basis
   columns replaces Bland's pivot sequence.

   The standard form of an all-[<=] program is [[A | I | b]].  A basic
   column with a single non-zero entry and a zero objective {e covers}
   its row: every basic slack does, and so does every basic idle
   variable of the scheduling LPs.  With the covered rows [C] and their
   covering columns [S] ordered last, the basis matrix is block
   lower-triangular,

     B = [ B_UD  0 ]    U: the uncovered rows
         [ B_CD  S ]    D: the other basic columns

   with [S] diagonal; two singletons on one row make [B] singular.  So
   [B] is non-singular exactly when the dense block [B_UD] is, the duals
   of the covered rows are 0 ([S y_C = c_S = 0]), and the others solve
   [B_UD^T y_U = c_D].  The certificate prices first and solves for the
   primal last, so an alternate optimum rejects after one block solve:
   - [B_UD^T y_U = c_D], then every non-basic column's reduced cost
     [c_j - y_U . A_Uj] as one integer dot product;
   - [B_UD x_D = b_U], then each covered row solved for its covering
     variable, and [x_B >= 0].
   Both block solves are fraction-free (Bareiss) on {!Numeric.Integer},
   over the uncovered rows scaled to integers: scaling a row by a
   positive constant changes neither [x_B] nor any reduced cost, and
   scaling the objective changes no reduced-cost sign.  A singular basis
   or a failed test simply rejects it (returns [None]), and the caller
   falls back to the canonical cold solve — so the routine can only
   ever trade speed, never correctness.

   Acceptance requires, in exact arithmetic:
   - primal feasibility: [B x_B = b] with [x_B >= 0];
   - strict dual feasibility: [c_j - y . A_j < 0] for every non-basic
     column, slack columns included (for a maximization) — except that a
     reduced cost of exactly zero is tolerated on a column that is a
     bit-exact duplicate (coefficients and zero objective) of a basic
     column.
   The strict inequalities prove the optimal point unique in every
   coordinate outside such duplicate pairs: an exchange between twins
   [A_j = A_k] moves weight one-for-one within the pair ([B^-1 A_j] is
   the basic twin's unit vector) and touches nothing else.  The
   scheduling LPs hit this exactly once per slack deadline row, whose
   idle variable duplicates the row's slack — and callers there never
   read either twin (idle is recomputed canonically), so the returned
   point is bit-identical to {!solve}'s wherever it is consumed. *)

exception Cert_reject

module I = Numeric.Integer
module K = Row_kernel.Exact

(* Fraction-free (Bareiss) solve of the square integer system whose
   augmented rows are [a], right-hand side last; [a] is overwritten.
   Every intermediate value is an integer minor of the input, so every
   division is exact.  Returns [(det, xs)]: the solution is
   [xs.(k) / det], [det] being the last pivot (the determinant, up to
   the sign of the row swaps).  Raises [Cert_reject] when singular. *)
let bareiss a =
  let n = Array.length a in
  let prev = ref I.one in
  for k = 0 to n - 1 do
    let r = ref k in
    while !r < n && I.is_zero a.(!r).(k) do
      incr r
    done;
    if !r = n then raise Cert_reject;
    let pr = a.(!r) in
    a.(!r) <- a.(k);
    a.(k) <- pr;
    let piv = pr.(k) in
    for i = k + 1 to n - 1 do
      let row = a.(i) in
      let f = row.(k) in
      for j = k + 1 to n do
        row.(j) <- I.divexact (I.cross piv row.(j) f pr.(j)) !prev
      done
    done;
    prev := piv
  done;
  (* Back substitution:
     [det x_k = (det b'_k - sum_{l > k} U_kl (det x_l)) / U_kk], exact
     since [det x_k] is an integer by Cramer's rule. *)
  let det = !prev in
  let xs = Array.make n I.zero in
  for k = n - 1 downto 0 do
    let u = a.(k) in
    let acc = ref (I.mul det u.(n)) in
    for l = k + 1 to n - 1 do
      acc := I.cross !acc I.one u.(l) xs.(l)
    done;
    xs.(k) <- I.divexact !acc u.(k)
  done;
  (det, xs)

let certify_basis (p : Problem.t) ~basis =
  let n = Problem.num_vars p in
  let m = Problem.num_constraints p in
  let cs = p.Problem.constraints in
  try
    (* Supported shape: every constraint [<=] with non-negative rhs (the
       scheduling LPs; the slack basis is feasible and column [n + i] is
       row [i]'s slack).  Anything else falls back to the cold solve. *)
    if
      not
        (Array.for_all
           (fun (c : Problem.constr) ->
             c.Problem.relation = Problem.Le && Q.sign c.Problem.rhs >= 0)
           cs)
    then raise Cert_reject;
    if Array.length basis <> m then raise Cert_reject;
    let basic = Array.make (n + m) false in
    Array.iter
      (fun j ->
        if j < 0 || j >= n + m || basic.(j) then raise Cert_reject;
        basic.(j) <- true)
      basis;
    (* Column [j] of the standard-form matrix, at row [i]. *)
    let col i j =
      if j < n then cs.(i).Problem.coeffs.(j)
      else if j - n = i then Q.one
      else Q.zero
    in
    (* A zero reduced cost is tolerable only on an exact duplicate of a
       basic zero-objective column (see the header): anything else opens
       a genuine alternate-optimum direction and rejects the basis. *)
    let zero_obj j = j >= n || Q.sign p.Problem.objective.(j) = 0 in
    let duplicate_of_basic j =
      zero_obj j
      && Array.exists
           (fun k ->
             k <> j
             && zero_obj k
             &&
             let rec eq i = i >= m || (Q.equal (col i k) (col i j) && eq (i + 1)) in
             eq 0)
           basis
    in
    (* -------- covered rows and the dense block -------- *)
    (* The row of structural column [j]'s only non-zero entry, or -1
       when it has several; an all-zero column makes [B] singular. *)
    let singleton_row j =
      let rec go i found =
        if i = m then (if found < 0 then raise Cert_reject else found)
        else if Q.sign cs.(i).Problem.coeffs.(j) = 0 then go (i + 1) found
        else if found >= 0 then -1
        else go (i + 1) i
      in
      go 0 (-1)
    in
    (* [cover.(i)]: the basis position covering row [i], or -1. *)
    let cover = Array.make m (-1) in
    let dense = ref [] in
    for k = m - 1 downto 0 do
      let j = basis.(k) in
      let i = if j >= n then j - n else if zero_obj j then singleton_row j else -1 in
      if i < 0 then dense := k :: !dense
      else if cover.(i) >= 0 then raise Cert_reject
      else cover.(i) <- k
    done;
    (* Every dense column is structural (a slack always covers). *)
    let dense = Array.of_list !dense in
    let a = Array.length dense in
    let uncovered = Array.make a 0 and upos = Array.make m (-1) in
    let next = ref 0 in
    for i = 0 to m - 1 do
      if cover.(i) < 0 then begin
        uncovered.(!next) <- i;
        upos.(i) <- !next;
        incr next
      end
    done;
    (* The uncovered rows [A_i | b_i] and the objective over integers. *)
    let rows =
      Array.map
        (fun i ->
          let c = cs.(i) in
          K.of_rationals (Array.append c.Problem.coeffs [| c.Problem.rhs |]))
        uncovered
    in
    let obj = K.of_rationals p.Problem.objective in
    (* -------- duals, then pricing -------- *)
    let det_y, ys =
      bareiss
        (Array.map
           (fun k ->
             let j = basis.(k) in
             Array.init (a + 1) (fun t ->
                 if t < a then K.entry rows.(t) j else K.entry obj j))
           dense)
    in
    (* Reduced costs are computed for the maximized objective. *)
    let dsign =
      I.sign det_y
      * match p.Problem.direction with Problem.Maximize -> 1 | Problem.Minimize -> -1
    in
    for j = 0 to n + m - 1 do
      if not basic.(j) then begin
        let s =
          if j >= n then
            (* A slack's reduced cost is minus its row's dual. *)
            let t = upos.(j - n) in
            if t < 0 then 0 else -I.sign ys.(t) * dsign
          else begin
            let acc = ref (I.mul det_y (K.entry obj j)) in
            for t = 0 to a - 1 do
              let v = K.entry rows.(t) j in
              if not (I.is_zero v) then acc := I.cross !acc I.one ys.(t) v
            done;
            I.sign !acc * dsign
          end
        in
        if s > 0 || (s = 0 && not (duplicate_of_basic j)) then raise Cert_reject
      end
    done;
    (* -------- primal -------- *)
    let det_x, xs =
      bareiss
        (Array.map
           (fun row ->
             Array.init (a + 1) (fun r ->
                 K.entry row (if r < a then basis.(dense.(r)) else n)))
           rows)
    in
    (* [x.(k)]: the value of basis position [k]'s variable. *)
    let x = Array.make m Q.zero in
    Array.iteri
      (fun r k ->
        if I.sign xs.(r) * I.sign det_x < 0 then raise Cert_reject;
        x.(k) <- Q.make xs.(r) det_x)
      dense;
    Array.iteri
      (fun i k ->
        if k >= 0 then begin
          let c = cs.(i) in
          let acc = ref c.Problem.rhs in
          Array.iter
            (fun kd ->
              let v = c.Problem.coeffs.(basis.(kd)) in
              if Q.sign v <> 0 then acc := Q.sub !acc (Q.mul v x.(kd)))
            dense;
          let j = basis.(k) in
          let v = if j >= n then !acc else Q.div !acc c.Problem.coeffs.(j) in
          if Q.sign v < 0 then raise Cert_reject;
          x.(k) <- v
        end)
      cover;
    (* -------- assemble the unique optimum -------- *)
    let point = Array.make n Q.zero in
    Array.iteri (fun k j -> if j < n then point.(j) <- x.(k)) basis;
    let value = ref Q.zero in
    Array.iteri
      (fun j c ->
        if Q.sign c <> 0 && Q.sign point.(j) <> 0 then
          value := Q.add !value (Q.mul c point.(j)))
      p.Problem.objective;
    Some { value = !value; point; pivots = 0; basis = Array.copy basis }
  with Cert_reject -> None

let solve_exn p =
  match solve_result p with Ok s -> s | Result.Error e -> raise (Error e)

let pp_outcome fmt = function
  | Unbounded -> Format.pp_print_string fmt "unbounded"
  | Infeasible -> Format.pp_print_string fmt "infeasible"
  | Optimal s ->
    Format.fprintf fmt "@[optimal %a at (%a) in %d pivots@]" Q.pp s.value
      (Format.pp_print_array
         ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
         Q.pp)
      s.point s.pivots
