(** Arbitrary-precision signed integers, built on {!Natural}. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val minus_one : t

(** {1 Construction and conversion} *)

val of_int : int -> t
val to_int_opt : t -> int option

(** [to_int a] is [a] as an [int]; unlike {!to_int_opt} it allocates
    nothing.
    @raise Invalid_argument when [a] does not fit. *)
val to_int : t -> int
val to_float : t -> float

(** [of_natural n] embeds a natural number. *)
val of_natural : Natural.t -> t

(** [make sign mag] builds [sign * mag]; the sign of a zero magnitude is
    forced to 0. [sign] must be -1, 0 or 1. *)
val make : int -> Natural.t -> t

(** [of_string s] parses an optionally signed decimal numeral. *)
val of_string : string -> t

val to_string : t -> string

(** {1 Inspection} *)

(** [sign a] is -1, 0 or 1. *)
val sign : t -> int

(** [magnitude a] is [|a|] as a natural number. *)
val magnitude : t -> Natural.t

val is_zero : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** [divmod a b] is truncated division: the quotient rounds toward zero
    and the remainder has the sign of [a] (OCaml's [(/)] / [(mod)]
    convention).
    @raise Division_by_zero if [b] is zero. *)
val divmod : t -> t -> t * t

(** [cross a b c d] is [a b - c d], the update of fraction-free
    elimination; on operands below 2^30 in magnitude it runs on native
    ints with no overflow check and allocates nothing. *)
val cross : t -> t -> t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor of [|a|], [|b|]. *)
val gcd : t -> t -> Natural.t

(** [gcd_integer a b] is {!gcd} as an integer; on small operands it
    allocates nothing. *)
val gcd_integer : t -> t -> t

(** [divexact a b] is [a / b] when [b] divides [a] (the result is
    unspecified otherwise); on small operands it allocates nothing.
    @raise Division_by_zero if [b] is zero. *)
val divexact : t -> t -> t

val pow : t -> int -> t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
