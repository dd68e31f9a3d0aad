(* An integer is either an immediate native int or a pointer to a [big]
   record, told apart by [Obj.is_int] — Zarith's layout, in OCaml.  The
   small form holds exactly the values of magnitude at most [max_int]
   ([min_int] is excluded, see {!Checked}); the big form holds all the
   others and never a value that fits.  The representation is therefore
   canonical: structural equality and [Hashtbl.hash] agree with [equal].
   Small operations are overflow-checked and their results are never
   boxed; an overflow redoes the operation on the limb code below and
   demotes the result again whenever it fits.  The [Obj] casts below are
   the only place that knows the layout. *)

type big = { sign : int; mag : Natural.t }
type t

let is_small (a : t) = Obj.is_int (Obj.repr a)
let small (n : int) : t = Obj.magic n
let to_small (a : t) : int = Obj.magic a
let to_big (a : t) : big = Obj.magic a
let of_big (b : big) : t = Obj.magic b

let two_62 = Natural.shift_left Natural.one 62

(* Both forms as a big record: the limb code's entry point. *)
let view a =
  if not (is_small a) then to_big a
  else begin
    let n = to_small a in
    if n > 0 then { sign = 1; mag = Natural.of_int n }
    else if n < 0 then { sign = -1; mag = Natural.of_int (-n) }
    else { sign = 0; mag = Natural.zero }
  end

(* Back from the limb code: demote whatever fits. *)
let norm (b : big) : t =
  match Natural.to_int_opt b.mag with
  | Some m -> small (b.sign * m)
  | None -> of_big b

let make sign mag =
  if sign < -1 || sign > 1 then invalid_arg "Integer.make: sign not in {-1,0,1}";
  if Natural.is_zero mag then small 0
  else if sign = 0 then invalid_arg "Integer.make: zero sign, non-zero magnitude"
  else norm { sign; mag }

let zero = small 0
let one = small 1
let minus_one = small (-1)
let of_natural mag = norm { sign = (if Natural.is_zero mag then 0 else 1); mag }

let of_int n =
  (* [-min_int] overflows; |min_int| = 2^62 is a limb value. *)
  if n = min_int then of_big { sign = -1; mag = two_62 } else small n

let sign a = if is_small a then Int.compare (to_small a) 0 else (to_big a).sign
let magnitude a = (view a).mag
let is_zero a = a == zero

let neg a =
  if is_small a then small (-to_small a)
  else
    let b = to_big a in
    of_big { b with sign = -b.sign }

let abs a = if sign a < 0 then neg a else a

let to_int_opt a =
  if is_small a then Some (to_small a)
  else begin
    (* -2^62 = min_int is representable although it is not small. *)
    let b = to_big a in
    if b.sign < 0 && Natural.equal b.mag two_62 then Some min_int else None
  end

let to_float a =
  if is_small a then float_of_int (to_small a)
  else
    let b = to_big a in
    float_of_int b.sign *. Natural.to_float b.mag

let compare_big a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else a.sign * Natural.compare a.mag b.mag

(* A big value lies beyond every small one, on the side of its sign. *)
let compare a b =
  match (is_small a, is_small b) with
  | true, true -> Int.compare (to_small a) (to_small b)
  | true, false -> -(to_big b).sign
  | false, true -> (to_big a).sign
  | false, false -> compare_big (to_big a) (to_big b)

let equal a b =
  if is_small a || is_small b then a == b else compare_big (to_big a) (to_big b) = 0

let add_big a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then { a with mag = Natural.add a.mag b.mag }
  else begin
    let cmp = Natural.compare a.mag b.mag in
    if cmp = 0 then { sign = 0; mag = Natural.zero }
    else if cmp > 0 then { a with mag = Natural.sub a.mag b.mag }
    else { b with mag = Natural.sub b.mag a.mag }
  end

let add_slow a b = norm (add_big (view a) (view b))

let add a b =
  if is_small a && is_small b then
    match Checked.add (to_small a) (to_small b) with
    | s -> small s
    | exception Checked.Overflow -> add_slow a b
  else add_slow a b

let sub a b =
  if is_small a && is_small b then
    match Checked.sub (to_small a) (to_small b) with
    | s -> small s
    | exception Checked.Overflow -> add_slow a (neg b)
  else add_slow a (neg b)

let mul_slow a b =
  let a = view a and b = view b in
  norm { sign = a.sign * b.sign; mag = Natural.mul a.mag b.mag }

let mul a b =
  if is_small a && is_small b then
    match Checked.mul (to_small a) (to_small b) with
    | p -> small p
    | exception Checked.Overflow -> mul_slow a b
  else mul_slow a b

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if is_small a && is_small b then
    (* No [min_int], so [min_int / -1] cannot arise. *)
    (small (to_small a / to_small b), small (to_small a mod to_small b))
  else begin
    let a = view a and b = view b in
    let q, r = Natural.divmod a.mag b.mag in
    (norm { sign = a.sign * b.sign; mag = q }, norm { sign = a.sign; mag = r })
  end

let gcd a b =
  if is_small a && is_small b then Natural.of_int (Checked.gcd (to_small a) (to_small b))
  else Natural.gcd (view a).mag (view b).mag

let pow a k =
  if k < 0 then invalid_arg "Integer.pow: negative exponent";
  let rec go acc a k =
    if k = 0 then acc
    else begin
      let acc = if k land 1 = 1 then mul acc a else acc in
      go acc (if k > 1 then mul a a else a) (k lsr 1)
    end
  in
  go one a k

(* Up to 18 decimal digits always fit: 10^18 < 2^62. *)
let small_of_digits s start =
  let len = String.length s in
  if len - start > 18 || len = start then None
  else begin
    let rec go acc i =
      if i = len then Some acc
      else
        match s.[i] with
        | '0' .. '9' as c -> go ((acc * 10) + Char.code c - 48) (i + 1)
        | _ -> None
    in
    go 0 start
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Integer.of_string: empty string";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  match small_of_digits s start with
  | Some n -> small (if negative then -n else n)
  | None ->
    let n = of_natural (Natural.of_string (String.sub s start (len - start))) in
    if negative then neg n else n

let to_string a =
  if is_small a then Checked.to_string (to_small a) 1
  else
    let b = to_big a in
    if b.sign < 0 then "-" ^ Natural.to_string b.mag else Natural.to_string b.mag

let pp fmt a = Format.pp_print_string fmt (to_string a)
