(** Exact two-phase primal simplex over arbitrary-precision rationals.

    Pivoting uses Bland's smallest-index rule, which guarantees
    termination even on degenerate problems (the scheduling LPs of the
    paper are routinely degenerate: several workers finish
    simultaneously).  Because the arithmetic is exact, the returned
    optimum is a true vertex of the feasible polyhedron — the structural
    arguments of the paper (Lemma 1: "at most one constraint slack")
    apply to it literally. *)

module Q = Numeric.Rational

type solution = {
  value : Q.t;  (** optimal objective value, in the problem's direction *)
  point : Q.t array;  (** one optimal assignment of the decision variables *)
  pivots : int;  (** number of simplex pivots performed (both phases) *)
  basis : int array;
      (** terminal basis (column index per constraint row); reusable as a
          warm start or a certification target via {!solve_with_basis} *)
}

type outcome = Optimal of solution | Unbounded | Infeasible

(** Outcome of {!solve_with_basis}; mirrors
    {!Solver_core.Make.warm_outcome} minus [Warm_stalled], which is
    unreachable with exact arithmetic. *)
type warm_outcome =
  | Warm_optimal of solution * bool
      (** [true]: strictly negative reduced costs on all non-basic
          columns, so the optimum is unique and the solution is
          bit-identical to {!solve}'s.  [false]: alternate optima may
          exist — fall back to {!solve} for a canonical answer. *)
  | Warm_unbounded
  | Warm_rejected  (** unusable basis; no answer implied — use {!solve} *)

(** The two ways a linear program can fail to have an optimum.  (The
    [Error_] prefix keeps the constructors from clashing with
    {!outcome}'s.) *)
type error = Error_unbounded | Error_infeasible

(** Raised by {!solve_exn}; carries the typed failure instead of a
    [Failure] string. *)
exception Error of error

val string_of_error : error -> string
val pp_error : Format.formatter -> error -> unit

(** [solve p] solves the linear program exactly. *)
val solve : Problem.t -> outcome

(** [solve_with_basis p ~basis] factorizes the candidate basis exactly
    and re-optimizes from it (zero pivots when the basis is already
    optimal).  Use with a float solver's terminal basis to certify a
    fast solve, or with a neighbouring problem's optimal basis as a warm
    start.  A defective basis returns [Warm_rejected], never a wrong
    answer. *)
val solve_with_basis : Problem.t -> basis:int array -> warm_outcome

(** [certify_basis p ~basis] checks whether [basis] is the {e unique}
    optimal basis of [p] using a single exact factorization restricted
    to the basis columns — one fraction-free elimination of the integer
    constraint and objective rows, which solves for the basic values
    and prices every column in the same pass — instead of tableau
    pivoting.  [Some sol] is returned only when, in exact
    arithmetic, the basis is primal feasible and every non-basic column
    has a strictly negative reduced cost — tolerating a reduced cost of
    exactly zero only on a column that duplicates (coefficients and zero
    objective) a basic column, since the exchange it permits moves
    weight strictly within the duplicate pair.  [sol] is then optimal
    and bit-identical to {!solve}'s answer in the value and in every
    point coordinate outside such pairs (in particular in every
    coordinate with a non-zero objective), with [pivots = 0].

    [None] means "no certificate", never "no optimum": the basis may be
    wrong, the optimum non-unique, or the problem shape unsupported
    (only all-[<=] programs with non-negative right-hand sides are
    handled).
    Callers must fall back to {!solve}.  When the elimination outgrows
    native ints, a cheap float screen rejects hopeless bases before any
    multi-precision arithmetic is spent. *)
val certify_basis : Problem.t -> basis:int array -> solution option

(** [solve_result p] is {!solve} in [result] form. *)
val solve_result : Problem.t -> (solution, error) result

(** [solve_exn p] extracts the optimal solution.
    @raise Error when the problem is unbounded or infeasible. *)
val solve_exn : Problem.t -> solution

val pp_outcome : Format.formatter -> outcome -> unit
