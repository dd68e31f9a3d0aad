(** The simplex algorithm, generic over the tableau-row kernel
    {!Row_kernel.S}.

    {!Solver} instantiates it with exact integer rows (and re-exports a
    rational-typed API — use that one by default); {!Float_solver} with
    IEEE doubles.  The algorithm is the classical two-phase primal
    simplex with Bland's smallest-index rule; with exact arithmetic
    Bland's rule guarantees termination, with floats an iteration cap
    backstops tolerance-induced cycling. *)

module Make (K : Row_kernel.S) : sig
  type solution = {
    value : K.scalar;
    point : K.scalar array;
    pivots : int;
    basis : int array;
        (** the terminal basis: for each constraint row, the column index
            of its basic variable.  Columns are numbered original
            variables first, then slacks, then artificials.  Feed it to
            {!solve_with_basis} (of the exact instantiation) to certify
            or warm-start another solve of a structurally identical
            problem. *)
  }

  type outcome =
    | Optimal of solution
    | Unbounded
    | Infeasible
    | Stalled
        (** the pivot cap was reached — only reachable with inexact
            arithmetic *)

  (** Outcome of a warm-started solve (see {!solve_with_basis}). *)
  type warm_outcome =
    | Warm_optimal of solution * bool
        (** the flag is [true] when every allowed non-basic column had a
            {e strictly} negative reduced cost at termination: the
            optimal point is then provably unique, so the solution is
            bit-identical to what {!solve} returns.  [false] means
            alternate optima may exist and the caller must fall back to
            the canonical cold solve if it needs a deterministic
            answer. *)
    | Warm_unbounded
    | Warm_rejected
        (** the candidate basis was unusable: wrong length, out-of-range
            or duplicate columns, an artificial column basic on a row
            that is not [0 = 0] over the structural columns, linearly
            dependent columns, or a primally infeasible basic point *)
    | Warm_stalled  (** the pivot cap was reached *)

  (** [solve ?max_pivots p] solves the (rational-typed) problem with
      this kernel's arithmetic. Default cap: 100000 pivots. *)
  val solve : ?max_pivots:int -> Problem.t -> outcome

  (** [solve_with_basis ?max_pivots p ~basis] starts the simplex from the
      given basis instead of from scratch: the basis columns are brought
      in with plain Gauss-Jordan pivots (a single factorization restricted
      to the candidate basis — no phase 1), primal feasibility is checked
      in this kernel's arithmetic, and Bland's rule then runs to
      termination.  Intended uses, with the exact instantiation:

      - {e basis lifting}: pass the terminal basis of a float solve; if
        the float solver ended on the true optimal basis, zero additional
        pivots are needed and the exact check certifies it;
      - {e warm starts}: pass the optimal basis of a neighbouring problem
        (consecutive enumeration permutations differ by a transposition),
        so Bland's rule starts near the optimum.

      Any defect in the candidate basis yields [Warm_rejected] — never a
      wrong answer — and the caller falls back to {!solve}. *)
  val solve_with_basis :
    ?max_pivots:int -> Problem.t -> basis:int array -> warm_outcome

  (** [standard_form p] is the tableau every solve of [p] starts from:
      one row per constraint — oriented to a non-negative right-hand
      side, then its slack and artificial columns, then the right-hand
      side — and the phase-2 objective row over the same columns,
      maximized (negated for a minimization).  With all constraints
      [<=] and right-hand sides non-negative the layout is
      [[A | I | b]], column [n + i] being row [i]'s slack. *)
  val standard_form : Problem.t -> K.row array * K.row

  (** [repair ?max_pivots p ~basis] warm-{e repairs} a candidate basis
      that need not be primally feasible for [p] — the typical state of
      a neighbouring problem's optimal basis after a small parameter
      change.  The basis is installed like {!solve_with_basis}; dual
      simplex pivots then drive any negative right-hand sides out
      (leaving row by smallest basic index, entering column by the dual
      ratio test), and a final primal Bland pass clears remaining
      positive reduced costs.  Returns the terminal basis and the
      number of repair pivots spent (installation excluded), or [None]
      when the candidate is unusable, the budget (default 200 pivots)
      runs out, or the program is infeasible or unbounded from here.

      The result is a {e candidate} optimal basis, nothing more: with
      inexact arithmetic the terminal basis can be wrong, so callers
      must pass it through an exact certification
      ({!Solver.certify_basis}) before trusting it. *)
  val repair :
    ?max_pivots:int -> Problem.t -> basis:int array -> (int array * int) option
end
