module type S = sig
  type scalar
  type row
  type entry

  val of_rationals : Numeric.Rational.t array -> row
  val sign : row -> int -> int
  val value : row -> int -> scalar
  val zero : scalar
  val neg : scalar -> scalar
  val normalize : row -> col:int -> unit
  val eliminate : row -> by:row -> col:int -> unit
  val entry : row -> int -> entry
  val compare_quotients : entry -> entry -> entry -> entry -> int
end

module Q = Numeric.Rational
module I = Numeric.Integer

module Exact = struct
  type scalar = Q.t
  type entry = I.t

  (* Value [j] is [e.(j) / den].  Invariant: [den > 0] and the gcd of
     [den] and all entries is 1, so the representation of a value set is
     unique and the entries stay as small as the values allow. *)
  type row = { mutable den : I.t; e : I.t array }

  (* Small integers are immediates, so physical equality decides
     equality for them; on big values it may answer [false] for equal
     ones, which only skips a shortcut below. *)
  let is_one x = x == I.one

  (* Divide out [g], a common divisor of [den] and every entry. *)
  let divide r g =
    if not (is_one g) then begin
      let e = r.e in
      for j = 0 to Array.length e - 1 do
        let x = e.(j) in
        if not (I.is_zero x) then e.(j) <- I.divexact x g
      done;
      r.den <- I.divexact r.den g
    end

  (* The gcd of [g] and the entries from [j] on, stopped as soon as it
     reaches 1. *)
  let rec content e j g =
    if j = Array.length e || is_one g then g
    else
      let x = e.(j) in
      content e (j + 1) (if I.is_zero x then g else I.gcd_integer g x)

  let reduce r = divide r (content r.e 0 r.den)

  let lcm l d =
    if is_one d then l
    else
      let g = I.gcd_integer l d in
      if g == d then l else I.mul (I.divexact l g) d

  (* Over the lcm of the denominators no common factor is left: each
     prime of the lcm divides some denominator to its full power, and
     that value's numerator is prime to it.  Tableau rows are mostly the
     shared zero, skipped cheaply. *)
  let of_rationals a =
    let den = Array.fold_left (fun l q -> if q == Q.zero then l else lcm l (Q.den q)) I.one a in
    let e =
      Array.map
        (fun q ->
          if q == Q.zero then I.zero
          else
            let d = Q.den q in
            if d == den then Q.num q
            else I.mul (Q.num q) (if is_one d then den else I.divexact den d))
        a
    in
    { den; e }

  let sign r j = I.sign r.e.(j)
  let value r j = Q.make r.e.(j) r.den
  let zero = Q.zero
  let neg = Q.neg

  (* The values divided by [e.(col) / den]: the denominator becomes the
     pivot entry, its sign moved onto the entries to keep [den > 0]. *)
  let normalize r ~col =
    let p = r.e.(col) in
    if I.sign p < 0 then begin
      let e = r.e in
      for j = 0 to Array.length e - 1 do
        e.(j) <- I.neg e.(j)
      done;
      r.den <- I.neg p
    end
    else r.den <- p;
    reduce r

  (* With [p] the pivot entry of [by] (its value reads 1, so [p] is its
     denominator, positive) and [f] this row's entry in the pivot column,
     [g = gcd p f]: [row := (p/g) row - (f/g) by] over [den (p/g)], which
     zeroes the pivot column; the content is folded along the way. *)
  let eliminate r ~by ~col =
    let f = r.e.(col) in
    if not (I.is_zero f) then begin
      let p = by.e.(col) in
      let g = I.gcd_integer p f in
      let a = I.divexact p g and b = I.divexact f g in
      let x = r.e and y = by.e in
      let den = if is_one a then r.den else I.mul r.den a in
      r.den <- den;
      let c = ref den in
      for j = 0 to Array.length x - 1 do
        let yj = y.(j) in
        let v =
          if not (I.is_zero yj) then I.cross a x.(j) b yj
          else if is_one a then x.(j)
          else I.mul a x.(j)
        in
        x.(j) <- v;
        if not (I.is_zero v || is_one !c) then c := I.gcd_integer !c v
      done;
      divide r !c
    end

  let entry r j = r.e.(j)

  (* [a/b < c/d] iff [a d < c b] when [b d > 0]. *)
  let compare_quotients a b c d = I.compare (I.mul a d) (I.mul c b)
end

module Float = struct
  type scalar = float
  type entry = float
  type row = float array

  let eps = 1e-9
  let sign_of x = if x > eps then 1 else if x < -.eps then -1 else 0
  let of_rationals a = Array.map Q.to_float a
  let sign r j = sign_of r.(j)
  let value r j = r.(j)
  let zero = 0.0
  let neg x = -.x

  let normalize r ~col =
    let inv_p = 1.0 /. r.(col) in
    for j = 0 to Array.length r - 1 do
      r.(j) <- r.(j) *. inv_p
    done

  let eliminate r ~by ~col =
    let f = r.(col) in
    if sign_of f <> 0 then
      for j = 0 to Array.length r - 1 do
        r.(j) <- r.(j) -. (f *. by.(j))
      done

  let entry r j = r.(j)
  let compare_quotients a b c d = sign_of ((a /. b) -. (c /. d))
end
