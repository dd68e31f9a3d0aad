(* Native-int helpers for the "small" values of {!Integer} and
   {!Rational}: ints of magnitude at most [max_int], i.e. every int
   except [min_int] (so negation and [abs] never overflow).

   The arithmetic is overflow-checked: a result outside that range,
   [min_int] included, raises [Overflow] instead of wrapping, and the
   caller then redoes the operation on limbs. *)

exception Overflow

let check r = if r = min_int then raise_notrace Overflow else r

(* Two's-complement addition overflowed iff the result's sign differs
   from both operands' signs. *)
let add a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then raise_notrace Overflow else check s

let sub a b =
  let s = a - b in
  if (a lxor b) land (a lxor s) < 0 then raise_notrace Overflow else check s

(* Below 2^31 in magnitude both factors keep the product below 2^62,
   so it cannot wrap; otherwise dividing back detects a wrap. *)
let half = 1 lsl 31

let mul a b =
  if a < half && a > -half && b < half && b > -half then a * b
  else begin
    let p = a * b in
    if a <> 0 && p / a <> b then raise_notrace Overflow else check p
  end

(* Non-negative greatest common divisor; [gcd 0 b = |b|]. *)
let gcd a b =
  let rec go a b = if b = 0 then a else go b (a mod b) in
  go (abs a) (abs b)

(* [n]'s decimal digits ([n >= 0]), written backwards into [b] so that
   they end just before [stop]; returns where they start. *)
let put_digits b stop n =
  let rec go i n =
    Bytes.unsafe_set b (i - 1) (Char.unsafe_chr (48 + (n mod 10)));
    if n < 10 then i - 1 else go (i - 1) (n / 10)
  in
  go stop n

(* ["num"] when [den = 1], else ["num/den"], for a small [num] and a
   positive small [den]; built in one buffer, without [string_of_int]'s
   trip through the C formatter (this sits on the protocol's render and
   key paths). *)
let to_string num den =
  let len = 40 in
  let b = Bytes.create len in
  let i =
    if den = 1 then len
    else begin
      let i = put_digits b len den in
      Bytes.unsafe_set b (i - 1) '/';
      i - 1
    end
  in
  let i = put_digits b i (abs num) in
  let i =
    if num < 0 then begin
      Bytes.unsafe_set b (i - 1) '-';
      i - 1
    end
    else i
  in
  Bytes.sub_string b i (len - i)
