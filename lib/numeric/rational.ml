(* A value is [Small] when its numerator and denominator both fit the
   small range of {!Integer} (magnitude at most [max_int]), and [Big]
   otherwise — never [Big] for a value that fits, so structural equality
   and [Hashtbl.hash] agree with [equal].  Both forms are normalized:
   den > 0, gcd(|num|, den) = 1, zero is 0/1.  [Small] operations run on
   native ints, overflow-checked ({!Checked}); an overflow redoes the
   operation on the [Integer] pair, whose result is demoted again when
   it fits. *)
type t =
  | Small of { num : int; den : int }
  | Big of { num : Integer.t; den : Integer.t }

(* [z] as a small int, or [min_int] (never small) when it does not fit. *)
let small_of z = match Integer.to_int_opt z with Some v -> v | None -> min_int

(* The canonical form of a normalized pair. *)
let of_pair num den =
  let n = small_of num and d = small_of den in
  if n <> min_int && d <> min_int then Small { num = n; den = d } else Big { num; den }

let num = function Small { num; _ } -> Integer.of_int num | Big { num; _ } -> num
let den = function Small { den; _ } -> Integer.of_int den | Big { den; _ } -> den
let zero = Small { num = 0; den = 1 }

(* [n/d] normalized, for small [n] and small non-zero [d]. *)
let make_small n d =
  if n = 0 then zero
  else begin
    let g = Checked.gcd n d in
    let g = if d < 0 then -g else g in
    Small { num = n / g; den = d / g }
  end

let make num den =
  if Integer.is_zero den then raise Division_by_zero;
  let n = small_of num and d = small_of den in
  if n <> min_int && d <> min_int then make_small n d
  else if Integer.is_zero num then zero
  else begin
    let num = if Integer.sign den < 0 then Integer.neg num else num in
    let den = Integer.abs den in
    let g = Integer.of_natural (Integer.gcd num den) in
    of_pair (fst (Integer.divmod num g)) (fst (Integer.divmod den g))
  end

let of_integer n = of_pair n Integer.one
let of_int n = if n <> min_int then Small { num = n; den = 1 } else of_integer (Integer.of_int n)

let of_ints num den =
  if den = 0 then raise Division_by_zero;
  if num <> min_int && den <> min_int then make_small num den
  else make (Integer.of_int num) (Integer.of_int den)

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let half = of_ints 1 2
let sign = function Small { num; _ } -> Int.compare num 0 | Big { num; _ } -> Integer.sign num
let is_zero a = sign a = 0

let is_integer = function
  | Small { den; _ } -> den = 1
  | Big { den; _ } -> Integer.equal den Integer.one

let neg = function
  | Small { num; den } -> Small { num = -num; den }
  | Big { num; den } -> Big { num = Integer.neg num; den }

let abs a = if sign a < 0 then neg a else a

(* Knuth, TAOCP 4.5.1: with g = gcd(b, d), a/b + c/d has numerator
   t = a(d/g) + c(b/g) and denominator (b/g)(d/g2) after dividing out
   g2 = gcd(t, g); no gcd of the full products is needed. *)
let add_small a b c d =
  if b = d then
    if b = 1 then Small { num = Checked.add a c; den = 1 } else make_small (Checked.add a c) b
  else begin
    let g = Checked.gcd b d in
    if g = 1 then Small { num = Checked.add (Checked.mul a d) (Checked.mul c b); den = Checked.mul b d }
    else begin
      let t = Checked.add (Checked.mul a (d / g)) (Checked.mul c (b / g)) in
      let g2 = Checked.gcd t g in
      Small { num = t / g2; den = Checked.mul (b / g) (d / g2) }
    end
  end

let add_slow a b =
  make
    (Integer.add (Integer.mul (num a) (den b)) (Integer.mul (num b) (den a)))
    (Integer.mul (den a) (den b))

let add a b =
  match (a, b) with
  | Small x, Small y -> (
    try add_small x.num x.den y.num y.den with Checked.Overflow -> add_slow a b)
  | _ -> add_slow a b

let sub a b =
  match (a, b) with
  | Small x, Small y -> (
    try add_small x.num x.den (-y.num) y.den with Checked.Overflow -> add_slow a (neg b))
  | _ -> add_slow a (neg b)

(* Cross-reduction: for normalized a/b and c/d, with g1 = gcd(a, d) and
   g2 = gcd(c, b), the product (a/g1)(c/g2) / ((b/g2)(d/g1)) is already
   normalized. *)
let mul_small a b c d =
  let g1 = Checked.gcd a d and g2 = Checked.gcd c b in
  Small { num = Checked.mul (a / g1) (c / g2); den = Checked.mul (b / g2) (d / g1) }

let mul_slow a b =
  let reduce x y = Integer.of_natural (Integer.gcd x y) in
  let g1 = reduce (num a) (den b) and g2 = reduce (num b) (den a) in
  let div x g = fst (Integer.divmod x g) in
  of_pair
    (Integer.mul (div (num a) g1) (div (num b) g2))
    (Integer.mul (div (den a) g2) (div (den b) g1))

let mul a b =
  match (a, b) with
  | Small x, Small y -> (
    try mul_small x.num x.den y.num y.den with Checked.Overflow -> mul_slow a b)
  | _ -> mul_slow a b

(* Swapping keeps each magnitude, hence the form. *)
let inv = function
  | Small { num; den } ->
    if num = 0 then raise Division_by_zero
    else if num > 0 then Small { num = den; den = num }
    else Small { num = -den; den = -num }
  | Big { num; den } ->
    if Integer.sign num > 0 then Big { num = den; den = num }
    else Big { num = Integer.neg den; den = Integer.neg num }

let div a b = mul a (inv b)

let compare_slow a b =
  Integer.compare (Integer.mul (num a) (den b)) (Integer.mul (num b) (den a))

let compare a b =
  match (a, b) with
  | Small x, Small y -> (
    if x.den = y.den then Int.compare x.num y.num
    else
      try Int.compare (Checked.mul x.num y.den) (Checked.mul y.num x.den)
      with Checked.Overflow -> compare_slow a b)
  | _ -> compare_slow a b

let equal a b =
  match (a, b) with
  | Small x, Small y -> x.num = y.num && x.den = y.den
  | Big x, Big y -> Integer.equal x.num y.num && Integer.equal x.den y.den
  | _ -> false

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let pow a k =
  let p = of_pair (Integer.pow (num a) (Int.abs k)) (Integer.pow (den a) (Int.abs k)) in
  if k >= 0 then p else inv p

let floor = function
  | Small { num; den } ->
    (* Truncated division rounds toward zero; fix up for negatives. *)
    Integer.of_int (if num mod den < 0 then (num / den) - 1 else num / den)
  | Big { num; den } ->
    let q, r = Integer.divmod num den in
    if Integer.sign r < 0 then Integer.sub q Integer.one else q

let ceil a = Integer.neg (floor (neg a))

let to_int_exn name n =
  match Integer.to_int_opt n with
  | Some v -> v
  | None -> invalid_arg (name ^ ": result exceeds native int range")

let floor_int a = to_int_exn "Rational.floor_int" (floor a)
let ceil_int a = to_int_exn "Rational.ceil_int" (ceil a)

let to_float = function
  | Small { num; den } -> float_of_int num /. float_of_int den
  | Big { num; den } -> Integer.to_float num /. Integer.to_float den

let of_float f =
  if not (Float.is_finite f) then invalid_arg "Rational.of_float: not finite"
  else if f = 0.0 then zero
  else begin
    let mant, exp = Float.frexp f in
    (* mant * 2^53 is an exact integer for any finite float. *)
    let scaled = Int64.to_int (Int64.of_float (Float.ldexp mant 53)) in
    let num = Integer.of_int scaled in
    let e = exp - 53 in
    if e >= 0 then of_integer (Integer.mul num (Integer.pow (Integer.of_int 2) e))
    else make num (Integer.pow (Integer.of_int 2) (-e))
  end

let sum l = List.fold_left add zero l
let sum_array a = Array.fold_left add zero a

let to_string = function
  | Small { num; den } -> Checked.to_string num den
  | Big { num; den } ->
    if Integer.equal den Integer.one then Integer.to_string num
    else Integer.to_string num ^ "/" ^ Integer.to_string den

let pp fmt a = Format.pp_print_string fmt (to_string a)

(* [10^e] has [e] digits, so the cost of a decimal exponent grows
   quadratically with it, and the text may come straight from a peer:
   a 12-byte "1e9999999" would pin a worker.  No schedule parameter
   needs more than this. *)
let max_exponent = 1000

let of_string_decimal s =
  (* [sign] [digits] [. digits] [e|E [sign] digits] *)
  let len = String.length s in
  if len = 0 then invalid_arg "Rational.of_string: empty string";
  let sgn, pos = match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0) in
  let mantissa_end =
    match String.index_from_opt s pos 'e' with
    | Some i -> i
    | None -> ( match String.index_from_opt s pos 'E' with Some i -> i | None -> len)
  in
  let mantissa = String.sub s pos (mantissa_end - pos) in
  let exponent =
    if mantissa_end = len then 0
    else int_of_string (String.sub s (mantissa_end + 1) (len - mantissa_end - 1))
  in
  if exponent > max_exponent || exponent < -max_exponent then
    invalid_arg "Rational.of_string: exponent out of range";
  let int_part, frac_part =
    match String.index_opt mantissa '.' with
    | None -> (mantissa, "")
    | Some i ->
      (String.sub mantissa 0 i, String.sub mantissa (i + 1) (String.length mantissa - i - 1))
  in
  let digits = int_part ^ frac_part in
  if digits = "" then invalid_arg "Rational.of_string: no digits";
  (* The sign was consumed above: another one here is malformed. *)
  if digits.[0] = '-' || digits.[0] = '+' then invalid_arg "Rational.of_string: misplaced sign";
  let n = Integer.of_string digits in
  let n = if sgn < 0 then Integer.neg n else n in
  let e = exponent - String.length frac_part in
  let ten = Integer.of_int 10 in
  if e >= 0 then of_integer (Integer.mul n (Integer.pow ten e))
  else make n (Integer.pow ten (-e))

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let p = Integer.of_string (String.sub s 0 i) in
    let q = Integer.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make p q
  | None -> of_string_decimal s

module Infix = struct
  let ( +/ ) = add
  let ( -/ ) = sub
  let ( */ ) = mul
  let ( // ) = div
  let ( =/ ) = equal
  let ( <>/ ) a b = not (equal a b)
  let ( </ ) a b = compare a b < 0
  let ( <=/ ) a b = compare a b <= 0
  let ( >/ ) a b = compare a b > 0
  let ( >=/ ) a b = compare a b >= 0
end
