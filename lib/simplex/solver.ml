module Q = Numeric.Rational
module Exact = Solver_core.Make (Field.Rational)

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
(* Restricted exact factorization of a candidate basis.

   [certify_basis] answers one question: is [basis] the unique optimal
   basis of [p]?  If so it returns the (unique) optimal solution without
   running the simplex method at all — two [m x m] exact linear solves
   and a pricing pass replace the full tableau, which matters because
   every tableau pivot costs a row of rational gcd normalizations.

   The arithmetic is fraction-free: each row of the basis system is
   scaled to integers (lcm of denominators) and eliminated with the
   Montante/Bareiss one-step method, which keeps every intermediate
   value an integer minor of the scaled matrix and needs no gcds.  A
   singular basis or a failed tolerance simply rejects it (returns
   [None]), and the caller falls back to the canonical cold solve — so
   the routine can only ever trade speed, never correctness.

   Acceptance requires, in exact arithmetic:
   - primal feasibility: [B x_B = b] with [x_B >= 0];
   - complementary duals: [B^T y = c_B] (so basic reduced costs vanish);
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

(* Exact quotient; most divisors here are 1 (integer coefficients, the
   first elimination step), so skip the division for them. *)
let quo a b = if I.equal b I.one then a else fst (I.divmod a b)

let gcd a b = I.of_natural (I.gcd a b)
let lcm a b = if I.equal b I.one then a else I.mul (quo a (gcd a b)) b

(* [q] times [l], for [l] a multiple of [q]'s denominator. *)
let scale_to l q = I.mul (Q.num q) (quo l (Q.den q))

(* Solve the [m x m] system given by [entry] (row, col) and [rhs] with
   fraction-free Gauss-Jordan elimination (Montante/Bareiss): each row is
   first scaled to integers (lcm of denominators, content divided out),
   then eliminated with the one-step identity
   [a_ij := (piv * a_ij - a_ik * a_kj) / prev_piv], whose divisions are
   exact — every intermediate value is a minor of the scaled matrix, so
   no rational normalization (and no gcd) ever runs.  The minors can
   exceed the native word for the larger scheduling bases, hence
   [Integer] arithmetic, which stays on native ints while values fit
   and is far cheaper than the equivalent tableau pivoting in [Q].

   Returns [(numerators, denominator)]: after the last step every pivot
   entry equals the same determinant value, so one denominator serves
   all components.  Raises [Cert_reject] on a singular matrix. *)
let montante_solve m entry rhs =
  let mat =
    Array.init m (fun i ->
        let row = Array.init (m + 1) (fun j -> if j < m then entry i j else rhs i) in
        let l = Array.fold_left (fun acc q -> lcm acc (Q.den q)) I.one row in
        let scaled = Array.map (scale_to l) row in
        let g =
          Array.fold_left (fun acc v -> if I.equal acc I.one then acc else gcd acc v) I.zero scaled
        in
        if I.sign g = 0 then scaled else Array.map (fun v -> quo v g) scaled)
  in
  let rowof = Array.make m (-1) in
  let claimed = Array.make m false in
  let prev = ref I.one in
  for k = 0 to m - 1 do
    let r = ref (-1) in
    (try
       for i = 0 to m - 1 do
         if (not claimed.(i)) && not (I.is_zero mat.(i).(k)) then begin
           r := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !r < 0 then raise Cert_reject;
    let r = !r in
    rowof.(k) <- r;
    claimed.(r) <- true;
    let piv = mat.(r).(k) in
    for i = 0 to m - 1 do
      if i <> r then begin
        let f = mat.(i).(k) in
        let fz = I.is_zero f in
        for j = 0 to m do
          let a = mat.(i).(j) in
          (* Zeros stay zero in a row with nothing to eliminate. *)
          if j <> k && not (fz && I.is_zero a) then begin
            let scaled = I.mul piv a in
            let v = if fz then scaled else I.sub scaled (I.mul f mat.(r).(j)) in
            mat.(i).(j) <- quo v !prev
          end
        done;
        mat.(i).(k) <- I.zero
      end
    done;
    prev := piv
  done;
  let det = mat.(rowof.(m - 1)).(m - 1) in
  (Array.init m (fun k -> mat.(rowof.(k)).(m)), det)

(* Small float LU solve used as a pre-screen: hopeless bases (wrong
   length aside: infeasible, suboptimal, or sitting on alternate optima)
   are rejected for the cost of a few hundred float ops, before any
   exact arithmetic is spent on them. *)
let float_solve m entry rhs =
  let a = Array.init m (fun i -> Array.init m (entry i)) in
  let x = Array.init m rhs in
  let piv_order = Array.init m Fun.id in
  for k = 0 to m - 1 do
    let best = ref k and best_mag = ref (Float.abs a.(piv_order.(k)).(k)) in
    for i = k + 1 to m - 1 do
      let mag = Float.abs a.(piv_order.(i)).(k) in
      if mag > !best_mag then begin
        best := i;
        best_mag := mag
      end
    done;
    if !best_mag < 1e-12 then raise Cert_reject;
    let tmp = piv_order.(k) in
    piv_order.(k) <- piv_order.(!best);
    piv_order.(!best) <- tmp;
    let pr = piv_order.(k) in
    for i = k + 1 to m - 1 do
      let ri = piv_order.(i) in
      let f = a.(ri).(k) /. a.(pr).(k) in
      if f <> 0.0 then begin
        for j = k to m - 1 do
          a.(ri).(j) <- a.(ri).(j) -. (f *. a.(pr).(j))
        done;
        x.(ri) <- x.(ri) -. (f *. x.(pr))
      end
    done
  done;
  let out = Array.make m 0.0 in
  for k = m - 1 downto 0 do
    let r = piv_order.(k) in
    let s = ref x.(r) in
    for j = k + 1 to m - 1 do
      s := !s -. (a.(r).(j) *. out.(j))
    done;
    out.(k) <- !s /. a.(r).(k)
  done;
  out

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
    let seen = Array.make (n + m) false in
    Array.iter
      (fun j ->
        if j < 0 || j >= n + m || seen.(j) then raise Cert_reject;
        seen.(j) <- true)
      basis;
    let basic = seen in
    (* Column [j] of the standard-form matrix, at row [i]. *)
    let col i j =
      if j < n then cs.(i).Problem.coeffs.(j)
      else if j - n = i then Q.one
      else Q.zero
    in
    let sign_q =
      match p.Problem.direction with
      | Problem.Maximize -> Q.one
      | Problem.Minimize -> Q.minus_one
    in
    let obj j = if j < n then Q.mul sign_q p.Problem.objective.(j) else Q.zero in
    let b_entry i k = col i basis.(k) in
    let bt_entry k i = col i basis.(k) in
    (* A zero reduced cost is tolerable only on an exact duplicate of a
       basic zero-objective column (see the header): anything else opens
       a genuine alternate-optimum direction and rejects the basis. *)
    let duplicate_of_basic j =
      Q.sign (obj j) = 0
      && Array.exists
           (fun k ->
             k <> j
             && Q.sign (obj k) = 0
             &&
             let rec eq i = i >= m || (Q.equal (col i k) (col i j) && eq (i + 1)) in
             eq 0)
           basis
    in
    (* -------- float screen -------- *)
    let fcol i j = Q.to_float (col i j) in
    let fx =
      float_solve m
        (fun i k -> fcol i basis.(k))
        (fun i -> Q.to_float cs.(i).Problem.rhs)
    in
    Array.iter (fun v -> if v < -1e-7 then raise Cert_reject) fx;
    let fy =
      float_solve m
        (fun k i -> fcol i basis.(k))
        (fun k -> Q.to_float (obj basis.(k)))
    in
    for j = 0 to n + m - 1 do
      if not basic.(j) then begin
        let r = ref (Q.to_float (obj j)) in
        for i = 0 to m - 1 do
          let a = fcol i j in
          if a <> 0.0 then r := !r -. (fy.(i) *. a)
        done;
        (* Near-zero reduced costs mean alternate optima (or a wrong
           basis): no certificate is possible, except on a twin column
           whose exact reduced cost is structurally zero. *)
        if !r > -1e-7 && not (duplicate_of_basic j) then raise Cert_reject
      end
    done;
    (* -------- exact certificate -------- *)
    let xs, xden = montante_solve m b_entry (fun i -> cs.(i).Problem.rhs) in
    let xsign = I.sign xden in
    Array.iter (fun v -> if I.sign v * xsign < 0 then raise Cert_reject) xs;
    let ys, yden = montante_solve m bt_entry (fun k -> obj basis.(k)) in
    let ysign = I.sign yden in
    (* Strict dual feasibility, checked without any rational arithmetic:
       [r_j = c_j - y . A_j < 0] with [y_i = ys_i / yden].  Multiplying
       by [yden] and by the column's denominator lcm [l] (both nonzero)
       turns the test into a pure integer sign:
       [sign(l * num(c_j)/den(c_j) * yden - sum_i ys_i * (l * a_ij))
        * sign(yden) < 0]. *)
    let reduced_sign j =
      let l = ref (Q.den (obj j)) in
      for i = 0 to m - 1 do
        l := lcm !l (Q.den (col i j))
      done;
      let acc = ref (I.mul (scale_to !l (obj j)) yden) in
      for i = 0 to m - 1 do
        let a = col i j in
        if Q.sign a <> 0 then acc := I.sub !acc (I.mul ys.(i) (scale_to !l a))
      done;
      I.sign !acc * ysign
    in
    for j = 0 to n + m - 1 do
      if not basic.(j) then begin
        let s = reduced_sign j in
        if s > 0 || (s = 0 && not (duplicate_of_basic j)) then raise Cert_reject
      end
    done;
    (* -------- assemble the unique optimum -------- *)
    let point = Array.make n Q.zero in
    Array.iteri
      (fun k j -> if j < n then point.(j) <- Q.make xs.(k) xden)
      basis;
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
