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
(* Restricted exact factorization of a candidate basis.

   [certify_basis] answers one question: is [basis] the unique optimal
   basis of [p]?  If so it returns the (unique) optimal solution without
   running the simplex method at all: one forward elimination onto the
   basis columns replaces Bland's pivot sequence.

   It runs on the integer rows every exact solve of [p] starts from
   ({!Exact.standard_form}: each constraint row [[A | I | b]] and the
   objective row, over their own positive denominators).  Scaling a row
   by a positive constant changes neither [x_B] nor any reduced-cost
   sign, so the denominators drop out.  Eliminating the objective row
   along with the constraint rows solves [B x_B = b] and prices every
   column against the duals of [B^T y = c_B] in the same pass.  Two
   eliminations share that shape:
   - the Montante/Bareiss one-step method on native ints, where every
     intermediate value is an integer minor of the matrix, every
     division is exact and no gcd is taken — the common case, while the
     minors stay below 2^30;
   - once they do not, the row kernel's own update (each row scaled by
     the pivot's cofactor, its content divided out), whose values are
     those of the rational tableau and stay as small as it does; a float
     pre-screen first rejects hopeless bases for the cost of a few
     hundred float ops.
   A singular basis or a failed tolerance simply rejects it (returns
   [None]), and the caller falls back to the canonical cold solve — so
   the routine can only ever trade speed, never correctness.

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

(* Forward elimination onto the columns [basis] of [m] constraint rows
   and, last, the objective row.  Pivot [k] is taken on the first
   unclaimed constraint row with a non-zero entry in column [basis.(k)];
   [step] then updates the rows not yet claimed, the objective row
   always among them.  Pivot rows freeze once used, so they form an
   upper-triangular system [U x_B = b'] over the basis columns, and the
   objective row ends as a positive multiple of the reduced costs
   (Bareiss: [det] times them).

   Returns [rowof], [rowof.(k)] the row of pivot [k]; raises
   [Cert_reject] on a singular basis. *)
let pivot_rows ~m basis ~nonzero ~step =
  let rowof = Array.make m (-1) in
  let claimed = Array.make (m + 1) false in
  Array.iteri
    (fun k col ->
      let r = ref 0 in
      while !r < m && (claimed.(!r) || not (nonzero !r col)) do
        incr r
      done;
      if !r = m then raise Cert_reject;
      rowof.(k) <- !r;
      claimed.(!r) <- true;
      step ~claimed ~r:!r ~col)
    basis;
  rowof

(* Raised as soon as an operand of the native elimination reaches 2^30,
   below which products and their difference cannot overflow. *)
exception Too_big

let below_2_30 x = (x + (1 lsl 30)) land lnot ((1 lsl 31) - 1) = 0

(* One Bareiss step [a_ij := (piv a_ij - a_ik a_kj) / prev] on the
   unclaimed rows.  [skip] marks the columns pivoted so far: they are
   zero on every row still updated. *)
let bareiss_step mat ~skip ~claimed ~r ~col ~prev =
  let pr = mat.(r) in
  let piv = pr.(col) in
  if not (below_2_30 piv) then raise Too_big;
  skip.(col) <- true;
  Array.iteri
    (fun i row ->
      if not claimed.(i) then begin
        let f = row.(col) in
        if not (below_2_30 f) then raise Too_big;
        for j = 0 to Array.length row - 1 do
          let a = row.(j) and b = pr.(j) in
          (* Zero stays zero where nothing is subtracted. *)
          if not (skip.(j) || (a = 0 && (f = 0 || b = 0))) then begin
            if not (below_2_30 a && below_2_30 b) then raise Too_big;
            let v = (piv * a) - (f * b) in
            row.(j) <- (if prev = 1 then v else v / prev)
          end
        done;
        row.(col) <- 0
      end)
    mat

(* The Bareiss certificate on native ints, for the [m + 1] kernel [rows]
   of [width] columns (the objective row last, the right-hand side the
   last column).  Returns the sign and the value of each basic
   variable and the sign of each column's reduced cost; raises
   [Too_big]. *)
let bareiss_certificate ~m ~width rows basis =
  let mat =
    Array.map
      (fun row ->
        Array.init width (fun j ->
            match I.to_int (K.entry row j) with
            | v when below_2_30 v -> v
            | _ | (exception Invalid_argument _) -> raise Too_big))
      rows
  in
  let skip = Array.make width false in
  let prev = ref 1 in
  let rowof =
    pivot_rows ~m basis
      ~nonzero:(fun i col -> mat.(i).(col) <> 0)
      ~step:(fun ~claimed ~r ~col ->
        bareiss_step mat ~skip ~claimed ~r ~col ~prev:!prev;
        prev := mat.(r).(col))
  in
  (* Back substitution through [U], on {!Numeric.Integer}:
     [det x_k = (det b'_k - sum_{l > k} U_kl (det x_l)) / U_kk], exact
     since [det x_k] is an integer by Cramer's rule. *)
  let det = I.of_int !prev in
  let xs = Array.make m I.zero in
  for k = m - 1 downto 0 do
    let u = mat.(rowof.(k)) in
    let acc = ref (I.mul det (I.of_int u.(width - 1))) in
    for l = k + 1 to m - 1 do
      acc := I.cross !acc I.one (I.of_int u.(basis.(l))) xs.(l)
    done;
    xs.(k) <- I.divexact !acc (I.of_int u.(basis.(k)))
  done;
  let dsign = compare !prev 0 in
  ( (fun k -> I.sign xs.(k) * dsign),
    (fun k -> Q.make xs.(k) det),
    fun j -> compare mat.(m).(j) 0 * dsign )

(* The same elimination with the row kernel's update, on the rows
   themselves ([total] is the right-hand-side column): each pivot row is
   normalized to read 1 in its basis column, so back substitution runs
   on the values directly. *)
let row_certificate ~m ~total rows objective basis =
  let rowof =
    pivot_rows ~m basis
      ~nonzero:(fun i col -> K.sign rows.(i) col <> 0)
      ~step:(fun ~claimed ~r ~col ->
        let pr = rows.(r) in
        K.normalize pr ~col;
        Array.iteri (fun i row -> if not claimed.(i) then K.eliminate row ~by:pr ~col) rows;
        K.eliminate objective ~by:pr ~col)
  in
  let x = Array.make m Q.zero in
  for k = m - 1 downto 0 do
    let u = rows.(rowof.(k)) in
    let acc = ref (K.value u total) in
    for l = k + 1 to m - 1 do
      if K.sign u basis.(l) <> 0 then acc := Q.sub !acc (Q.mul (K.value u basis.(l)) x.(l))
    done;
    x.(k) <- !acc
  done;
  ((fun k -> Q.sign x.(k)), Array.get x, K.sign objective)

(* Small float LU solve used by the pre-screen.  Solves [a x = rhs],
   overwriting both. *)
let float_solve a x =
  let m = Array.length x in
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
    (* Infeasible, suboptimal or sitting on alternate optima in floats:
       not worth the exact elimination. *)
    let float_screen () =
      let fa = Array.make_matrix m (n + m) 0.0 in
      for i = 0 to m - 1 do
        let coeffs = cs.(i).Problem.coeffs in
        for j = 0 to n - 1 do
          fa.(i).(j) <- Q.to_float coeffs.(j)
        done;
        fa.(i).(n + i) <- 1.0
      done;
      let fc = Array.init (n + m) (fun j -> Q.to_float (obj j)) in
      let fb = Array.make_matrix m m 0.0 and fbt = Array.make_matrix m m 0.0 in
      for i = 0 to m - 1 do
        for k = 0 to m - 1 do
          fb.(i).(k) <- fa.(i).(basis.(k));
          fbt.(k).(i) <- fa.(i).(basis.(k))
        done
      done;
      let fx =
        float_solve fb (Array.map (fun (c : Problem.constr) -> Q.to_float c.Problem.rhs) cs)
      in
      Array.iter (fun v -> if v < -1e-7 then raise Cert_reject) fx;
      let fy = float_solve fbt (Array.map (fun k -> fc.(k)) basis) in
      for j = 0 to n + m - 1 do
        if not basic.(j) then begin
          let r = ref fc.(j) in
          for i = 0 to m - 1 do
            let a = fa.(i).(j) in
            if a <> 0.0 then r := !r -. (fy.(i) *. a)
          done;
          (* Near-zero reduced costs mean alternate optima (or a wrong
             basis): no certificate is possible, except on a twin column
             whose exact reduced cost is structurally zero. *)
          if !r > -1e-7 && not (duplicate_of_basic j) then raise Cert_reject
        end
      done
    in
    (* -------- exact certificate -------- *)
    let rows, objective = Exact.standard_form p in
    let x_sign, x_value, reduced_sign =
      try
        bareiss_certificate ~m ~width:(n + m + 1) (Array.append rows [| objective |]) basis
      with Too_big ->
        float_screen ();
        row_certificate ~m ~total:(n + m) rows objective basis
    in
    for k = 0 to m - 1 do
      if x_sign k < 0 then raise Cert_reject
    done;
    for j = 0 to n + m - 1 do
      if not basic.(j) then begin
        let s = reduced_sign j in
        if s > 0 || (s = 0 && not (duplicate_of_basic j)) then raise Cert_reject
      end
    done;
    (* -------- assemble the unique optimum -------- *)
    let point = Array.make n Q.zero in
    Array.iteri (fun k j -> if j < n then point.(j) <- x_value k) basis;
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
