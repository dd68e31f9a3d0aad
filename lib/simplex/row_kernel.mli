(** The tableau-row arithmetic the simplex core is generic over.

    A kernel owns the representation of one tableau row and the few
    operations Gauss-Jordan pivoting and the pivot rules need; the
    algorithm itself ({!Solver_core.Make}) only ever asks for signs,
    quotient comparisons and row eliminations.  Two instances ship with
    the library: exact integer rows (the default — schedules are exact)
    and IEEE doubles with an epsilon-tolerant sign (fast, for the float
    scout of the certified pipeline and for throughput estimation). *)

module type S = sig
  (** The number type of solutions read off the tableau. *)
  type scalar

  (** One mutable tableau row: the constraint coefficients, slack and
      artificial columns, then the right-hand side. *)
  type row

  (** One stored entry of a row, as {!compare_quotients} consumes it. *)
  type entry

  (** [of_rationals a] is a fresh row holding the values [a]. *)
  val of_rationals : Numeric.Rational.t array -> row

  (** [sign r j] is the sign of value [j] of [r]: it decides pivot
      eligibility, and a float kernel applies its tolerance here — the
      single point where robustness enters. *)
  val sign : row -> int -> int

  (** [value r j] is value [j] of [r]. *)
  val value : row -> int -> scalar

  val zero : scalar
  val neg : scalar -> scalar

  (** [normalize r ~col] scales the pivot row [r] so that its value in
      column [col] (non-zero) reads 1. *)
  val normalize : row -> col:int -> unit

  (** [eliminate r ~by ~col] subtracts from [r] the multiple of [by]
      that zeroes [r]'s value in column [col], where [by]'s value there
      reads 1.  A row whose value in [col] is zero is left alone. *)
  val eliminate : row -> by:row -> col:int -> unit

  (** [entry r j] is the stored entry [j] of [r]. *)
  val entry : row -> int -> entry

  (** [compare_quotients a b c d] compares the quotient [a / b] with
      [c / d], for non-zero [b] and [d] of the same sign.  Each quotient
      divides two entries whose rows share one scale: both from one row
      (the primal ratio test), or numerators from one row and
      denominators from another, the same two rows on both sides (the
      dual ratio test). *)
  val compare_quotients : entry -> entry -> entry -> entry -> int
end

(** Exact rows: each row is an {!Numeric.Integer.t} array over one
    positive denominator, with no common factor left among the entries
    and the denominator.  The values — entry over denominator — are
    exactly those of the rational tableau, so every sign test and ratio
    comparison decides as rational arithmetic would; a row update
    multiplies by the pivot entry's cofactor and divides the content out
    once, instead of normalizing every entry as a rational. *)
module Exact :
  S with type scalar = Numeric.Rational.t and type entry = Numeric.Integer.t

(** IEEE doubles with [sign] tolerance [1e-9]. *)
module Float : S with type scalar = float and type entry = float
