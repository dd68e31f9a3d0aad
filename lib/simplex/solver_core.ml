module Q = Numeric.Rational

module Make (K : Row_kernel.S) = struct
  type solution = {
    value : K.scalar;
    point : K.scalar array;
    pivots : int;
    basis : int array;
  }

  type outcome = Optimal of solution | Unbounded | Infeasible | Stalled

  type warm_outcome =
    | Warm_optimal of solution * bool
    | Warm_unbounded
    | Warm_rejected
    | Warm_stalled

  exception Pivot_cap

  (* Dense tableau of kernel rows, one per constraint plus the objective
     row.  Columns: original variables, then slacks, then artificials,
     then the right-hand side. *)
  type tableau = {
    rows : K.row array;
    mutable obj : K.row;
    basis : int array;
    allowed : bool array;
    total : int;
    max_pivots : int;
    mutable pivots : int;
  }

  let pivot t ~row ~col =
    if t.pivots >= t.max_pivots then raise Pivot_cap;
    let pr = t.rows.(row) in
    K.normalize pr ~col;
    Array.iteri (fun i r -> if i <> row then K.eliminate r ~by:pr ~col) t.rows;
    K.eliminate t.obj ~by:pr ~col;
    t.basis.(row) <- col;
    t.pivots <- t.pivots + 1

  let rec optimize t =
    let m = Array.length t.rows in
    let entering = ref (-1) in
    (try
       for j = 0 to t.total - 1 do
         if t.allowed.(j) && K.sign t.obj j > 0 then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      (* Ratio test on rhs / entry; ties go to the smaller basic index. *)
      let best_row = ref (-1) in
      for i = 0 to m - 1 do
        let r = t.rows.(i) in
        if K.sign r col > 0 then begin
          let better =
            !best_row < 0
            ||
            let b = t.rows.(!best_row) in
            let c =
              K.compare_quotients (K.entry r t.total) (K.entry r col) (K.entry b t.total)
                (K.entry b col)
            in
            c < 0 || (c = 0 && t.basis.(i) < t.basis.(!best_row))
          in
          if better then best_row := i
        end
      done;
      if !best_row < 0 then `Unbounded
      else begin
        pivot t ~row:!best_row ~col;
        optimize t
      end
    end

  (* Price out the basic columns of the objective row [c]; each basic
     column reads 1 on its row. *)
  let install_objective t c =
    t.obj <- c;
    Array.iteri (fun i bv -> K.eliminate c ~by:t.rows.(i) ~col:bv) t.basis

  (* Standard-form tableau shared by the cold and warm entry points. *)
  type prepared = {
    t : tableau;
    n : int;  (* original variables *)
    n_slack : int;
    n_art : int;
    maximize : bool;
    phase2 : K.row;  (* the phase-2 objective row, not yet priced out *)
  }

  let prepare ~max_pivots (p : Problem.t) =
    let n = Problem.num_vars p in
    let m = Problem.num_constraints p in
    let oriented =
      Array.map
        (fun (c : Problem.constr) ->
          if Q.sign c.Problem.rhs < 0 then
            let coeffs = Array.map Q.neg c.Problem.coeffs in
            let relation =
              match c.Problem.relation with
              | Problem.Le -> Problem.Ge
              | Problem.Ge -> Problem.Le
              | Problem.Eq -> Problem.Eq
            in
            Problem.constr coeffs relation (Q.neg c.Problem.rhs)
          else c)
        p.Problem.constraints
    in
    let n_slack =
      Array.fold_left
        (fun acc c ->
          match c.Problem.relation with Problem.Eq -> acc | _ -> acc + 1)
        0 oriented
    in
    let n_art =
      Array.fold_left
        (fun acc c ->
          match c.Problem.relation with Problem.Le -> acc | _ -> acc + 1)
        0 oriented
    in
    let total = n + n_slack + n_art in
    let basis = Array.make m (-1) in
    let next_slack = ref n in
    let next_art = ref (n + n_slack) in
    let rows =
      Array.mapi
        (fun i c ->
          let row = Array.make (total + 1) Q.zero in
          Array.blit c.Problem.coeffs 0 row 0 n;
          row.(total) <- c.Problem.rhs;
          (match c.Problem.relation with
          | Problem.Le ->
            row.(!next_slack) <- Q.one;
            basis.(i) <- !next_slack;
            incr next_slack
          | Problem.Ge ->
            row.(!next_slack) <- Q.minus_one;
            incr next_slack;
            row.(!next_art) <- Q.one;
            basis.(i) <- !next_art;
            incr next_art
          | Problem.Eq ->
            row.(!next_art) <- Q.one;
            basis.(i) <- !next_art;
            incr next_art);
          K.of_rationals row)
        oriented
    in
    let t =
      {
        rows;
        obj = K.of_rationals (Array.make (total + 1) Q.zero);
        basis;
        allowed = Array.make total true;
        total;
        max_pivots;
        pivots = 0;
      }
    in
    let maximize = p.Problem.direction = Problem.Maximize in
    (* The phase-2 objective row, maximized: the objective, negated for a
       minimization. *)
    let c = Array.make (total + 1) Q.zero in
    Array.iteri (fun j v -> c.(j) <- (if maximize then v else Q.neg v)) p.Problem.objective;
    { t; n; n_slack; n_art; maximize; phase2 = K.of_rationals c }

  let standard_form p =
    let pr = prepare ~max_pivots:0 p in
    (pr.t.rows, pr.phase2)

  let finish pr =
    let t = pr.t in
    let point = Array.make pr.n K.zero in
    Array.iteri
      (fun i bv -> if bv < pr.n then point.(bv) <- K.value t.rows.(i) t.total)
      t.basis;
    let value = K.value t.obj t.total in
    let value = if pr.maximize then K.neg value else value in
    Optimal
      { value; point; pivots = t.pivots; basis = Array.copy t.basis }

  let solve ?(max_pivots = 100_000) (p : Problem.t) =
    let pr = prepare ~max_pivots p in
    let t = pr.t in
    let n = pr.n and n_slack = pr.n_slack and n_art = pr.n_art in
    let total = t.total in
    try
      if n_art = 0 then begin
        install_objective t pr.phase2;
        match optimize t with `Optimal -> finish pr | `Unbounded -> Unbounded
      end
      else begin
        let c1 = Array.make (total + 1) Q.zero in
        for j = n + n_slack to total - 1 do
          c1.(j) <- Q.minus_one
        done;
        install_objective t (K.of_rationals c1);
        (match optimize t with
        | `Unbounded -> assert false
        | `Optimal -> ());
        if K.sign t.obj total > 0 then Infeasible
        else begin
          Array.iteri
            (fun i bv ->
              if bv >= n + n_slack then begin
                let col = ref (-1) in
                (try
                   for j = 0 to n + n_slack - 1 do
                     if K.sign t.rows.(i) j <> 0 then begin
                       col := j;
                       raise Exit
                     end
                   done
                 with Exit -> ());
                if !col >= 0 then pivot t ~row:i ~col:!col
              end)
            t.basis;
          for j = n + n_slack to total - 1 do
            t.allowed.(j) <- false
          done;
          install_objective t pr.phase2;
          match optimize t with `Optimal -> finish pr | `Unbounded -> Unbounded
        end
      end
    with Pivot_cap -> Stalled

  (* Bring the columns of [target] into the basis with plain Gauss-Jordan
     pivots.  Rows whose initial basic column already belongs to the
     target keep it; every remaining target column is pivoted onto the
     first free row where its coefficient is nonzero.  Returns [false]
     when the columns are linearly dependent (no such row exists). *)
  let install_basis t target =
    let m = Array.length t.rows in
    let in_target = Array.make t.total false in
    Array.iter (fun c -> in_target.(c) <- true) target;
    let claimed = Array.make m false in
    let placed = Array.make t.total false in
    Array.iteri
      (fun i bv ->
        if in_target.(bv) && not placed.(bv) then begin
          claimed.(i) <- true;
          placed.(bv) <- true
        end)
      t.basis;
    try
      Array.iter
        (fun col ->
          if not placed.(col) then begin
            let row = ref (-1) in
            (try
               for i = 0 to m - 1 do
                 if (not claimed.(i)) && K.sign t.rows.(i) col <> 0 then begin
                   row := i;
                   raise Exit
                 end
               done
             with Exit -> ());
            if !row < 0 then raise Not_found;
            pivot t ~row:!row ~col;
            claimed.(!row) <- true;
            placed.(col) <- true
          end)
        target;
      true
    with Not_found -> false

  (* Shared candidate-basis validation: [m] distinct columns.  Artificial
     columns are admitted here so that a cold solve's own terminal basis
     installs; [artificials_inert] then checks them. *)
  let basis_shape_ok t ~m basis =
    Array.length basis = m
    &&
    let seen = Array.make t.total false in
    Array.for_all
      (fun c ->
        c >= 0 && c < t.total
        &&
        if seen.(c) then false
        else begin
          seen.(c) <- true;
          true
        end)
      basis

  (* An installed basic artificial is harmless only on a row that reads
     [0 = 0] over the structural columns: no allowed pivot can touch that
     row, so the artificial stays basic at zero.  This is exactly where a
     cold solve leaves one, on a redundant equality row that phase 1
     cannot drive its artificial out of.  Any other basic artificial
     would be a variable of the auxiliary problem, not of the real one. *)
  let artificials_inert t ~structural =
    let inert = ref true in
    Array.iteri
      (fun i bv ->
        if bv >= structural then begin
          let row = t.rows.(i) in
          if K.sign row t.total <> 0 then inert := false;
          for j = 0 to structural - 1 do
            if K.sign row j <> 0 then inert := false
          done
        end)
      t.basis;
    !inert

  let solve_with_basis ?(max_pivots = 100_000) (p : Problem.t) ~basis =
    let pr = prepare ~max_pivots p in
    let t = pr.t in
    let m = Array.length t.rows in
    let structural = pr.n + pr.n_slack in
    if not (basis_shape_ok t ~m basis) then Warm_rejected
    else
      try
        if not (install_basis t basis && artificials_inert t ~structural) then
          Warm_rejected
        else begin
          (* Exact primal feasibility of the candidate basis. *)
          let feasible = ref true in
          for i = 0 to m - 1 do
            if K.sign t.rows.(i) t.total < 0 then feasible := false
          done;
          if not !feasible then Warm_rejected
          else begin
            for j = structural to t.total - 1 do
              t.allowed.(j) <- false
            done;
            install_objective t pr.phase2;
            match optimize t with
            | `Unbounded -> Warm_unbounded
            | `Optimal ->
              (* Strict dual feasibility: every allowed non-basic column
                 must have a strictly negative reduced cost.  This proves
                 the optimal point is unique, hence equal to whatever the
                 cold solve would return — the caller may then substitute
                 this solution for the canonical one. *)
              let basic = Array.make t.total false in
              Array.iter (fun bv -> basic.(bv) <- true) t.basis;
              let unique = ref true in
              for j = 0 to t.total - 1 do
                if t.allowed.(j) && (not basic.(j)) && K.sign t.obj j = 0
                then unique := false
              done;
              (match finish pr with
              | Optimal s -> Warm_optimal (s, !unique)
              | _ -> assert false)
          end
        end
      with Pivot_cap -> Warm_stalled

  (* Warm *repair*.  Unlike [solve_with_basis], a primally infeasible
     installed basis is not grounds for rejection: that is exactly the
     state a neighbouring problem's optimal basis lands in after the
     right-hand side or a constraint row moved.  Dual-simplex pivots
     drive the negative right-hand sides out first (leaving row by
     Bland's smallest-basic-index among negative rows; entering column
     by the dual ratio test on [a_rj < 0], smallest index on ties), and
     the ordinary primal Bland pass then clears any remaining positive
     reduced costs.  The dual ratio test is only a heuristic here —
     nothing downstream trusts the terminal basis without certifying
     it, so a "wrong" pivot choice costs a fallback, never a wrong
     answer.

     Returns the terminal basis plus the number of repair pivots (dual
     and primal, excluding the ones spent installing the candidate), or
     [None] when the candidate is unusable, the pivot budget runs out,
     or the program is infeasible or unbounded from here. *)
  let repair ?(max_pivots = 200) (p : Problem.t) ~basis =
    let m = Problem.num_constraints p in
    (* Installing the candidate costs up to [m] Gauss-Jordan pivots on
       top of the repair budget proper. *)
    let pr = prepare ~max_pivots:(max_pivots + m) p in
    let t = pr.t in
    let structural = pr.n + pr.n_slack in
    if not (basis_shape_ok t ~m basis) then None
    else
      try
        if not (install_basis t basis && artificials_inert t ~structural) then None
        else begin
          for j = structural to t.total - 1 do
            t.allowed.(j) <- false
          done;
          install_objective t pr.phase2;
          let installed = t.pivots in
          let basic = Array.make t.total false in
          let rec dual () =
            let row = ref (-1) in
            for i = 0 to m - 1 do
              if
                K.sign t.rows.(i) t.total < 0
                && (!row < 0 || t.basis.(i) < t.basis.(!row))
              then row := i
            done;
            if !row < 0 then `Feasible
            else begin
              let r = !row in
              Array.fill basic 0 t.total false;
              Array.iter (fun bv -> basic.(bv) <- true) t.basis;
              (* Dual ratio test on reduced cost / entry; ties go to the
                 smaller column. *)
              let row = t.rows.(r) in
              let col = ref (-1) in
              for j = 0 to t.total - 1 do
                if t.allowed.(j) && (not basic.(j)) && K.sign row j < 0 then
                  if
                    !col < 0
                    || K.compare_quotients (K.entry t.obj j) (K.entry row j)
                         (K.entry t.obj !col) (K.entry row !col)
                       < 0
                  then col := j
              done;
              if !col < 0 then `Stuck
              else begin
                pivot t ~row:r ~col:!col;
                dual ()
              end
            end
          in
          match dual () with
          | `Stuck -> None
          | `Feasible -> (
            match optimize t with
            | `Unbounded -> None
            | `Optimal -> Some (Array.copy t.basis, t.pivots - installed))
        end
      with Pivot_cap -> None
end
