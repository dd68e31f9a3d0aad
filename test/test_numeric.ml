(* Tests for the arbitrary-precision arithmetic substrate. *)

module N = Numeric.Natural
module Z = Numeric.Integer
module Q = Numeric.Rational

let nat = Alcotest.testable N.pp N.equal
let int_big = Alcotest.testable Z.pp Z.equal
let rat = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

(* Random naturals as decimal strings up to [digits] long, so that all
   limb counts are exercised. *)
let gen_natural ?(min_digits = 1) digits =
  let open QCheck2.Gen in
  let* len = int_range min_digits digits in
  let* first = int_range 0 9 in
  let* rest = list_size (return (len - 1)) (int_range 0 9) in
  let s = String.concat "" (List.map string_of_int (first :: rest)) in
  return (N.of_string s)

let gen_integer digits =
  let open QCheck2.Gen in
  let* mag = gen_natural digits in
  let* negative = bool in
  let v = Z.of_natural mag in
  return (if negative then Z.neg v else v)

let gen_rational digits =
  let open QCheck2.Gen in
  let* n = gen_integer digits in
  let* d = gen_natural digits in
  let d = N.add d N.one in
  return (Q.make n (Z.of_natural d))

let prop ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* ------------------------------------------------------------------ *)
(* Natural: unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_nat_of_int_roundtrip () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (Printf.sprintf "roundtrip %d" n)
        (Some n)
        (N.to_int_opt (N.of_int n)))
    [ 0; 1; 2; 1073741823; 1073741824; max_int; max_int - 1; 123456789012345 ]

let test_nat_of_int_negative () =
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Natural.of_int: negative argument") (fun () ->
      ignore (N.of_int (-1)))

let test_nat_to_int_overflow () =
  let big = N.pow (N.of_int 10) 30 in
  Alcotest.(check (option int)) "10^30 does not fit" None (N.to_int_opt big)

let test_nat_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (N.to_string (N.of_string s)))
    [
      "0";
      "1";
      "999999999";
      "1000000000";
      "123456789123456789123456789";
      "99999999999999999999999999999999999999999999999999";
    ]

let test_nat_string_leading_zeros () =
  Alcotest.check nat "0007 = 7" (N.of_int 7) (N.of_string "0007")

let test_nat_string_separators () =
  Alcotest.check nat "1_000 = 1000" (N.of_int 1000) (N.of_string "1_000")

let test_nat_string_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Natural.of_string: empty string") (fun () ->
      ignore (N.of_string ""));
  (try
     ignore (N.of_string "12a3");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_nat_add_carry_chain () =
  (* (2^300 - 1) + 1 = 2^300: a maximal carry propagation. *)
  let p300 = N.shift_left N.one 300 in
  let m = N.sub p300 N.one in
  Alcotest.check nat "carry chain" p300 (N.add m N.one)

let test_nat_sub_borrow_chain () =
  let p300 = N.shift_left N.one 300 in
  let m = N.sub p300 N.one in
  Alcotest.check nat "borrow chain" m (N.sub p300 N.one)

let test_nat_sub_negative () =
  Alcotest.check_raises "negative result"
    (Invalid_argument "Natural.sub: negative result") (fun () ->
      ignore (N.sub (N.of_int 3) (N.of_int 5)))

let test_nat_mul_known () =
  let a = N.of_string "123456789123456789" in
  let b = N.of_string "987654321987654321" in
  Alcotest.check nat "big product"
    (N.of_string "121932631356500531347203169112635269")
    (N.mul a b)

let test_nat_divmod_known () =
  let a = N.of_string "121932631356500531347203169112635270" in
  let b = N.of_string "987654321987654321" in
  let q, r = N.divmod a b in
  Alcotest.check nat "quotient" (N.of_string "123456789123456789") q;
  Alcotest.check nat "remainder" N.one r

let test_nat_divmod_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (N.divmod N.one N.zero))

let test_nat_divmod_smaller () =
  let q, r = N.divmod (N.of_int 3) (N.of_int 10) in
  Alcotest.check nat "q" N.zero q;
  Alcotest.check nat "r" (N.of_int 3) r

let test_nat_divmod_addback () =
  (* A case engineered to trigger Knuth-D's rare add-back branch:
     u = B^3/2 where the first quotient estimate overshoots. *)
  let b30 = N.shift_left N.one 30 in
  let u = N.sub (N.shift_left N.one 89) N.one in
  let v = N.add (N.shift_left b30 30) N.one in
  let q, r = N.divmod u v in
  Alcotest.check nat "reconstruct" u (N.add (N.mul q v) r);
  Alcotest.(check bool) "r < v" true (N.compare r v < 0)

let test_nat_gcd () =
  Alcotest.check nat "gcd(48,36)" (N.of_int 12) (N.gcd (N.of_int 48) (N.of_int 36));
  Alcotest.check nat "gcd(0,5)" (N.of_int 5) (N.gcd N.zero (N.of_int 5));
  Alcotest.check nat "gcd(5,0)" (N.of_int 5) (N.gcd (N.of_int 5) N.zero);
  Alcotest.check nat "gcd coprime" N.one (N.gcd (N.of_int 17) (N.of_int 31))

let test_nat_pow () =
  Alcotest.check nat "2^10" (N.of_int 1024) (N.pow N.two 10);
  Alcotest.check nat "x^0" N.one (N.pow (N.of_int 12345) 0);
  Alcotest.check nat "10^20" (N.of_string "100000000000000000000") (N.pow N.ten 20)

let test_nat_shift () =
  Alcotest.check nat "1 << 100 >> 100" N.one
    (N.shift_right (N.shift_left N.one 100) 100);
  Alcotest.check nat "7 << 0" (N.of_int 7) (N.shift_left (N.of_int 7) 0);
  Alcotest.check nat "7 >> 3" N.zero (N.shift_right (N.of_int 7) 3);
  Alcotest.check nat "13 >> 2" (N.of_int 3) (N.shift_right (N.of_int 13) 2)

let test_nat_num_bits () =
  Alcotest.(check int) "bits 0" 0 (N.num_bits N.zero);
  Alcotest.(check int) "bits 1" 1 (N.num_bits N.one);
  Alcotest.(check int) "bits 2^30" 31 (N.num_bits (N.shift_left N.one 30));
  Alcotest.(check int) "bits 2^100-1" 100
    (N.num_bits (N.sub (N.shift_left N.one 100) N.one))

let test_nat_to_float () =
  Alcotest.(check (float 1e-9)) "to_float small" 12345.0
    (N.to_float (N.of_int 12345));
  Alcotest.(check (float 1e6)) "to_float 2^62" (Float.ldexp 1.0 62)
    (N.to_float (N.shift_left N.one 62))

(* ------------------------------------------------------------------ *)
(* Natural: properties                                                 *)
(* ------------------------------------------------------------------ *)

let nat_props =
  let g = gen_natural 50 in
  let g2 = QCheck2.Gen.pair g g in
  let g3 = QCheck2.Gen.triple g g g in
  [
    prop "nat: add commutative" g2 (fun (a, b) -> N.equal (N.add a b) (N.add b a));
    prop "nat: add associative" g3 (fun (a, b, c) ->
        N.equal (N.add (N.add a b) c) (N.add a (N.add b c)));
    prop "nat: (a+b)-b = a" g2 (fun (a, b) -> N.equal (N.sub (N.add a b) b) a);
    prop "nat: mul commutative" g2 (fun (a, b) -> N.equal (N.mul a b) (N.mul b a));
    prop "nat: mul distributes" g3 (fun (a, b, c) ->
        N.equal (N.mul a (N.add b c)) (N.add (N.mul a b) (N.mul a c)));
    prop "nat: divmod reconstructs" g2 (fun (a, b) ->
        let b = N.add b N.one in
        let q, r = N.divmod a b in
        N.equal a (N.add (N.mul q b) r) && N.compare r b < 0);
    prop "nat: string roundtrip" g (fun a -> N.equal a (N.of_string (N.to_string a)));
    prop "nat: shift roundtrip" (QCheck2.Gen.pair g (QCheck2.Gen.int_range 0 200))
      (fun (a, k) -> N.equal a (N.shift_right (N.shift_left a k) k));
    prop "nat: compare antisymmetric" g2 (fun (a, b) ->
        N.compare a b = -N.compare b a);
    prop "nat: gcd divides both" g2 (fun (a, b) ->
        let b = N.add b N.one in
        let g = N.gcd a b in
        let _, r1 = N.divmod a g and _, r2 = N.divmod b g in
        N.is_zero r1 && N.is_zero r2);
    (* Force the Karatsuba path (the threshold is 512 limbs, ~4600
       decimal digits) and cross-check it against the schoolbook
       reference.  Minimum digit counts keep the inputs above the
       threshold. *)
    prop ~count:10 "nat: Karatsuba = schoolbook on large inputs"
      (QCheck2.Gen.pair (gen_natural ~min_digits:5000 9000)
         (gen_natural ~min_digits:5000 9000))
      (fun (a, b) -> N.equal (N.mul a b) (N.mul_schoolbook a b));
    prop ~count:8 "nat: Karatsuba on unbalanced operands"
      (QCheck2.Gen.pair (gen_natural ~min_digits:10000 14000)
         (gen_natural ~min_digits:5000 6000))
      (fun (a, b) -> N.equal (N.mul a b) (N.mul_schoolbook a b));
  ]

(* ------------------------------------------------------------------ *)
(* Integer                                                             *)
(* ------------------------------------------------------------------ *)

let test_int_of_int () =
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        (string_of_int n) (Some n)
        (Z.to_int_opt (Z.of_int n)))
    [ 0; 1; -1; max_int; min_int + 1; min_int; 42; -42 ]

let test_int_signs () =
  Alcotest.(check int) "sign +" 1 (Z.sign (Z.of_int 5));
  Alcotest.(check int) "sign -" (-1) (Z.sign (Z.of_int (-5)));
  Alcotest.(check int) "sign 0" 0 (Z.sign Z.zero);
  Alcotest.check int_big "neg neg" (Z.of_int 5) (Z.neg (Z.of_int (-5)));
  Alcotest.check int_big "abs" (Z.of_int 5) (Z.abs (Z.of_int (-5)))

let test_int_divmod_truncation () =
  (* Must match OCaml's native (/) and (mod) on every sign combination. *)
  List.iter
    (fun (a, b) ->
      let q, r = Z.divmod (Z.of_int a) (Z.of_int b) in
      Alcotest.(check (option int))
        (Printf.sprintf "%d/%d" a b)
        (Some (a / b)) (Z.to_int_opt q);
      Alcotest.(check (option int))
        (Printf.sprintf "%d mod %d" a b)
        (Some (a mod b))
        (Z.to_int_opt r))
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (6, 3); (-6, 3); (0, 5) ]

let test_int_string () =
  Alcotest.check int_big "-123" (Z.of_int (-123)) (Z.of_string "-123");
  Alcotest.check int_big "+123" (Z.of_int 123) (Z.of_string "+123");
  Alcotest.(check string) "to_string" "-123" (Z.to_string (Z.of_int (-123)))

let test_int_pow_parity () =
  Alcotest.check int_big "(-2)^3" (Z.of_int (-8)) (Z.pow (Z.of_int (-2)) 3);
  Alcotest.check int_big "(-2)^4" (Z.of_int 16) (Z.pow (Z.of_int (-2)) 4);
  Alcotest.check int_big "0^0" Z.one (Z.pow Z.zero 0)

let int_props =
  let g = gen_integer 40 in
  let g2 = QCheck2.Gen.pair g g in
  let g3 = QCheck2.Gen.triple g g g in
  [
    prop "int: add commutative" g2 (fun (a, b) -> Z.equal (Z.add a b) (Z.add b a));
    prop "int: a + (-a) = 0" g (fun a -> Z.is_zero (Z.add a (Z.neg a)));
    prop "int: sub = add neg" g2 (fun (a, b) ->
        Z.equal (Z.sub a b) (Z.add a (Z.neg b)));
    prop "int: mul associative" g3 (fun (a, b, c) ->
        Z.equal (Z.mul (Z.mul a b) c) (Z.mul a (Z.mul b c)));
    prop "int: divmod reconstructs" g2 (fun (a, b) ->
        let b = if Z.is_zero b then Z.one else b in
        let q, r = Z.divmod a b in
        Z.equal a (Z.add (Z.mul q b) r)
        && N.compare (Z.magnitude r) (Z.magnitude b) < 0
        && (Z.is_zero r || Z.sign r = Z.sign a));
    prop "int: string roundtrip" g (fun a -> Z.equal a (Z.of_string (Z.to_string a)));
    prop "int: compare trichotomy" g2 (fun (a, b) ->
        let c = Z.compare a b in
        if c = 0 then Z.equal a b
        else if c < 0 then Z.compare b a > 0
        else Z.compare b a < 0);
  ]

(* ------------------------------------------------------------------ *)
(* Rational                                                            *)
(* ------------------------------------------------------------------ *)

let test_rat_normalization () =
  Alcotest.check rat "2/4 = 1/2" (Q.of_ints 1 2) (Q.of_ints 2 4);
  Alcotest.check rat "-2/-4 = 1/2" (Q.of_ints 1 2) (Q.of_ints (-2) (-4));
  Alcotest.check rat "2/-4 = -1/2" (Q.of_ints (-1) 2) (Q.of_ints 2 (-4));
  Alcotest.(check int) "den positive" 1 (Z.sign (Q.den (Q.of_ints 3 (-7))));
  Alcotest.check rat "0/5 = 0" Q.zero (Q.of_ints 0 5)

let test_rat_div_by_zero () =
  Alcotest.check_raises "of_ints x 0" Division_by_zero (fun () ->
      ignore (Q.of_ints 1 0));
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_rat_arithmetic_known () =
  Alcotest.check rat "1/2 + 1/3" (Q.of_ints 5 6) (Q.add Q.half (Q.of_ints 1 3));
  Alcotest.check rat "1/2 * 2/3" (Q.of_ints 1 3) (Q.mul Q.half (Q.of_ints 2 3));
  Alcotest.check rat "(1/2) / (3/4)" (Q.of_ints 2 3) (Q.div Q.half (Q.of_ints 3 4));
  Alcotest.check rat "1/2 - 1/2" Q.zero (Q.sub Q.half Q.half)

let test_rat_floor_ceil () =
  Alcotest.check int_big "floor 7/2" (Z.of_int 3) (Q.floor (Q.of_ints 7 2));
  Alcotest.check int_big "floor -7/2" (Z.of_int (-4)) (Q.floor (Q.of_ints (-7) 2));
  Alcotest.check int_big "ceil 7/2" (Z.of_int 4) (Q.ceil (Q.of_ints 7 2));
  Alcotest.check int_big "ceil -7/2" (Z.of_int (-3)) (Q.ceil (Q.of_ints (-7) 2));
  Alcotest.(check int) "floor_int 3" 3 (Q.floor_int (Q.of_int 3));
  Alcotest.(check int) "ceil_int 3" 3 (Q.ceil_int (Q.of_int 3))

let test_rat_of_float () =
  Alcotest.check rat "0.5" Q.half (Q.of_float 0.5);
  Alcotest.check rat "0.25" (Q.of_ints 1 4) (Q.of_float 0.25);
  Alcotest.check rat "-1.5" (Q.of_ints (-3) 2) (Q.of_float (-1.5));
  Alcotest.check rat "0.0" Q.zero (Q.of_float 0.0);
  Alcotest.check rat "3.0" (Q.of_int 3) (Q.of_float 3.0);
  Alcotest.check_raises "nan" (Invalid_argument "Rational.of_float: not finite")
    (fun () -> ignore (Q.of_float Float.nan))

let test_rat_of_string () =
  Alcotest.check rat "3/4" (Q.of_ints 3 4) (Q.of_string "3/4");
  Alcotest.check rat "-3/4" (Q.of_ints (-3) 4) (Q.of_string "-3/4");
  Alcotest.check rat "42" (Q.of_int 42) (Q.of_string "42");
  Alcotest.check rat "1.25" (Q.of_ints 5 4) (Q.of_string "1.25");
  Alcotest.check rat "-1.25e-2" (Q.of_ints (-1) 80) (Q.of_string "-1.25e-2");
  Alcotest.check rat "2.5E3" (Q.of_int 2500) (Q.of_string "2.5E3");
  Alcotest.check rat ".5" Q.half (Q.of_string ".5")

let test_rat_to_string () =
  Alcotest.(check string) "int form" "3" (Q.to_string (Q.of_int 3));
  Alcotest.(check string) "frac form" "-1/2" (Q.to_string (Q.of_ints 1 (-2)))

let test_rat_sum () =
  Alcotest.check rat "sum list" (Q.of_ints 11 6)
    (Q.sum [ Q.one; Q.half; Q.of_ints 1 3 ]);
  Alcotest.check rat "sum array" Q.zero (Q.sum_array [||])

let rat_props =
  let g = gen_rational 25 in
  let g2 = QCheck2.Gen.pair g g in
  let g3 = QCheck2.Gen.triple g g g in
  let open Q.Infix in
  [
    prop "rat: add commutative" g2 (fun (a, b) -> a +/ b =/ (b +/ a));
    prop "rat: add associative" g3 (fun (a, b, c) ->
        a +/ b +/ c =/ (a +/ (b +/ c)));
    prop "rat: mul associative" g3 (fun (a, b, c) ->
        a */ b */ c =/ (a */ (b */ c)));
    prop "rat: distributivity" g3 (fun (a, b, c) ->
        a */ (b +/ c) =/ ((a */ b) +/ (a */ c)));
    prop "rat: a * inv a = 1" g (fun a ->
        Q.is_zero a || a */ Q.inv a =/ Q.one);
    prop "rat: sub then add" g2 (fun (a, b) -> a -/ b +/ b =/ a);
    prop "rat: floor bounds" g (fun a ->
        let f = Q.of_integer (Q.floor a) in
        f <=/ a && a </ (f +/ Q.one));
    prop "rat: ceil = -floor(-a)" g (fun a ->
        Z.equal (Q.ceil a) (Z.neg (Q.floor (Q.neg a))));
    prop "rat: compare consistent with sub sign" g2 (fun (a, b) ->
        Q.compare a b = Q.sign (a -/ b));
    prop "rat: string roundtrip" g (fun a -> Q.of_string (Q.to_string a) =/ a);
    prop "rat: float roundtrip is exact" QCheck2.Gen.float (fun f ->
        (not (Float.is_finite f)) || Q.to_float (Q.of_float f) = f);
    prop "rat: pow matches repeated mul" (QCheck2.Gen.pair g (QCheck2.Gen.int_range 0 8))
      (fun (a, k) ->
        let rec rep acc i = if i = 0 then acc else rep (acc */ a) (i - 1) in
        Q.pow a k =/ rep Q.one k);
  ]

(* ------------------------------------------------------------------ *)
(* Additional edge cases                                               *)
(* ------------------------------------------------------------------ *)

let test_int_min_int_edges () =
  let m = Z.of_int min_int in
  Alcotest.(check (option int)) "roundtrip" (Some min_int) (Z.to_int_opt m);
  Alcotest.(check bool) "neg leaves int range" true
    (Z.to_int_opt (Z.neg m) = None);
  Alcotest.(check int) "sign" (-1) (Z.sign m);
  Alcotest.(check (float 1e30)) "to_float magnitude"
    (-4.611686018427388e18) (Z.to_float m)

let test_int_gcd_signs () =
  let n = Numeric.Natural.of_int 6 in
  Alcotest.(check bool) "gcd(-12, 18)" true
    (Numeric.Natural.equal n (Z.gcd (Z.of_int (-12)) (Z.of_int 18)));
  Alcotest.(check bool) "gcd(12, -18)" true
    (Numeric.Natural.equal n (Z.gcd (Z.of_int 12) (Z.of_int (-18))))

let test_rat_min_max () =
  Alcotest.check rat "min" Q.half (Q.min Q.half Q.one);
  Alcotest.check rat "max" Q.one (Q.max Q.half Q.one);
  Alcotest.check rat "min neg" (Q.of_int (-3)) (Q.min (Q.of_int (-3)) Q.zero)

let test_rat_negative_pow () =
  Alcotest.check rat "(2/3)^-2" (Q.of_ints 9 4) (Q.pow (Q.of_ints 2 3) (-2));
  Alcotest.check_raises "0^-1" Division_by_zero (fun () ->
      ignore (Q.pow Q.zero (-1)))

let test_rat_is_integer () =
  Alcotest.(check bool) "3 integer" true (Q.is_integer (Q.of_int 3));
  Alcotest.(check bool) "4/2 integer" true (Q.is_integer (Q.of_ints 4 2));
  Alcotest.(check bool) "1/2 not" false (Q.is_integer Q.half)

let test_rat_floor_int_overflow () =
  let huge = Q.of_integer (Z.of_natural (N.pow N.ten 30)) in
  Alcotest.check_raises "overflow"
    (Invalid_argument "Rational.floor_int: result exceeds native int range")
    (fun () -> ignore (Q.floor_int huge))

let test_rat_infix_coverage () =
  let open Q.Infix in
  Alcotest.(check bool) "<>/" true (Q.half <>/ Q.one);
  Alcotest.(check bool) "</" true (Q.half </ Q.one);
  Alcotest.(check bool) "<=/" true (Q.half <=/ Q.half);
  Alcotest.(check bool) ">/" true (Q.one >/ Q.half);
  Alcotest.(check bool) ">=/" true (Q.one >=/ Q.one);
  Alcotest.check rat "chain" (Q.of_ints 3 2) (Q.one +/ Q.one -/ Q.half);
  Alcotest.check rat "div" Q.two (Q.one // Q.half)

let test_rat_of_string_errors () =
  List.iter
    (fun s ->
      try
        ignore (Q.of_string s);
        Alcotest.failf "accepted %S" s
      with Invalid_argument _ | Failure _ | Division_by_zero -> ())
    [ ""; "abc"; "1/"; "/2"; "1/0"; "--3"; "1.2.3" ]

let test_rat_exponent_bound () =
  (* The cost of 10^e grows quadratically with e, and the text can come
     from a peer: an exponent past the bound is refused up front. *)
  Alcotest.check rat "1e1000 accepted" (Q.of_integer (Z.pow (Z.of_int 10) 1000))
    (Q.of_string "1e1000");
  Alcotest.check rat "1e-1000 accepted" (Q.inv (Q.of_integer (Z.pow (Z.of_int 10) 1000)))
    (Q.of_string "1e-1000");
  let t0 = Sys.time () in
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument "Rational.of_string: exponent out of range")
        (fun () -> ignore (Q.of_string s)))
    [ "1e1001"; "1e-1001"; "1e9999999"; "2.5E-9999999" ];
  Alcotest.(check bool) "rejected quickly" true (Sys.time () -. t0 < 1.0)

let edge_cases =
  [
    Alcotest.test_case "int min_int edges" `Quick test_int_min_int_edges;
    Alcotest.test_case "int gcd signs" `Quick test_int_gcd_signs;
    Alcotest.test_case "rat min/max" `Quick test_rat_min_max;
    Alcotest.test_case "rat negative pow" `Quick test_rat_negative_pow;
    Alcotest.test_case "rat is_integer" `Quick test_rat_is_integer;
    Alcotest.test_case "rat floor_int overflow" `Quick test_rat_floor_int_overflow;
    Alcotest.test_case "rat infix" `Quick test_rat_infix_coverage;
    Alcotest.test_case "rat of_string errors" `Quick test_rat_of_string_errors;
    Alcotest.test_case "rat exponent bound" `Quick test_rat_exponent_bound;
  ]

(* ------------------------------------------------------------------ *)
(* Small values vs limbs                                               *)
(* ------------------------------------------------------------------ *)

(* The reference: a sign and a [Natural] magnitude, every operation done
   on limbs.  [Integer] and [Rational] keep values that fit a native int
   as native ints and fall back to limbs on overflow; whichever form
   they pick, they must compute exactly this. *)
module Ref = struct
  type z = int * N.t

  let mk s m : z = if N.is_zero m then (0, N.zero) else (s, m)
  let neg ((s, m) : z) : z = (-s, m)

  let add ((s1, m1) as a : z) ((s2, m2) as b : z) =
    if s1 = 0 then b
    else if s2 = 0 then a
    else if s1 = s2 then (s1, N.add m1 m2)
    else begin
      let c = N.compare m1 m2 in
      if c = 0 then (0, N.zero)
      else if c > 0 then (s1, N.sub m1 m2)
      else (s2, N.sub m2 m1)
    end

  let sub a b = add a (neg b)
  let mul ((s1, m1) : z) ((s2, m2) : z) = mk (s1 * s2) (N.mul m1 m2)

  let divmod ((s1, m1) : z) ((s2, m2) : z) =
    let q, r = N.divmod m1 m2 in
    (mk (s1 * s2) q, mk s1 r)

  let compare ((s1, m1) : z) ((s2, m2) : z) =
    if s1 <> s2 then Stdlib.compare s1 s2 else s1 * N.compare m1 m2

  let to_string ((s, m) : z) = (if s < 0 then "-" else "") ^ N.to_string m

  (* [n/d] with a positive denominator, in lowest terms. *)
  type q = z * N.t

  let qmake ((s, m) : z) (ds, dm) : q =
    if s = 0 then ((0, N.zero), N.one)
    else begin
      let g = N.gcd m dm in
      ((s * ds, fst (N.divmod m g)), fst (N.divmod dm g))
    end

  let qadd ((n1, d1) : q) ((n2, d2) : q) =
    qmake (add (mul n1 (1, d2)) (mul n2 (1, d1))) (1, N.mul d1 d2)

  let qsub (n1, d1) (n2, d2) = qadd (n1, d1) (neg n2, d2)
  let qmul ((n1, d1) : q) ((n2, d2) : q) = qmake (mul n1 n2) (1, N.mul d1 d2)

  let qdiv ((n1, d1) : q) (((s2, m2), d2) : q) =
    qmake (mul n1 (1, d2)) (s2, N.mul d1 m2)

  let qcompare ((n1, d1) : q) ((n2, d2) : q) = compare (mul n1 (1, d2)) (mul n2 (1, d1))

  let qto_string ((n, d) : q) =
    if N.equal d N.one then to_string n else to_string n ^ "/" ^ N.to_string d
end

(* Magnitudes that straddle the small/limb boundary: around 2^30 (where
   [Integer.cross] stops skipping its checks), 2^31 (where the unchecked
   product stops being safe), sqrt(2^63), max_int and 2^62 = |min_int|,
   plus tiny values and multi-limb ones. *)
let gen_edge_mag =
  let open QCheck2.Gen in
  let around c =
    map (fun d -> if d >= 0 then N.add c (N.of_int d) else N.sub c (N.of_int (-d)))
      (int_range (-3) 3)
  in
  let two k = N.shift_left N.one k in
  oneof
    [
      around (two 30);
      around (two 31);
      around (N.of_int 3037000499);
      around (N.of_int max_int);
      around (two 62);
      map N.of_int (int_range 0 1000);
      map N.of_int (int_bound max_int);
      gen_natural 40;
    ]

let gen_edge_z =
  let open QCheck2.Gen in
  map2 (fun m negative -> Ref.mk (if negative then -1 else 1) m) gen_edge_mag bool

let gen_edge_q =
  let open QCheck2.Gen in
  map2 (fun n d -> Ref.qmake n (1, N.add d N.one)) gen_edge_z gen_edge_mag

let z_of_ref ((s, m) : Ref.z) = Z.make s m
let q_of_ref ((n, d) : Ref.q) = Q.make (z_of_ref n) (Z.of_natural d)

(* Same value as the reference, in the one canonical form. *)
let z_agrees z ((s, m) as r : Ref.z) =
  Z.sign z = s && N.equal (Z.magnitude z) m && z = z_of_ref r

let q_agrees q ((n, d) as r : Ref.q) =
  z_agrees (Q.num q) n && z_agrees (Q.den q) (1, d) && q = q_of_ref r

let small_props =
  let open QCheck2.Gen in
  let z2 = pair gen_edge_z gen_edge_z and q2 = pair gen_edge_q gen_edge_q in
  [
    prop ~count:1000 "int: small/limb agrees with limbs" z2 (fun (ra, rb) ->
        let a = z_of_ref ra and b = z_of_ref rb in
        z_agrees (Z.add a b) (Ref.add ra rb)
        && z_agrees (Z.sub a b) (Ref.sub ra rb)
        && z_agrees (Z.mul a b) (Ref.mul ra rb)
        && Z.compare a b = Ref.compare ra rb
        && N.equal (Z.gcd a b) (N.gcd (snd ra) (snd rb))
        && Z.to_string a = Ref.to_string ra
        && z_agrees (Z.of_string (Ref.to_string ra)) ra
        && (fst rb = 0
           ||
           let q, r = Z.divmod a b and rq, rr = Ref.divmod ra rb in
           z_agrees q rq && z_agrees r rr));
    prop ~count:1000 "int: cross, gcd_integer, divexact, to_int agree with limbs"
      (pair z2 z2) (fun ((ra, rb), (rc, rd)) ->
        let a = z_of_ref ra and b = z_of_ref rb and c = z_of_ref rc and d = z_of_ref rd in
        let cross = Ref.sub (Ref.mul ra rb) (Ref.mul rc rd) in
        let g = N.gcd (snd ra) (snd rb) in
        (match Z.to_int_opt a with
        | Some v -> Z.to_int a = v
        | None -> ( try ignore (Z.to_int a); false with Invalid_argument _ -> true))
        && z_agrees (Z.cross a b c d) cross
        && z_agrees (Z.gcd_integer a b) (Ref.mk 1 g)
        && (fst rb = 0 || z_agrees (Z.divexact (Z.mul a b) b) ra)
        && (N.is_zero g || z_agrees (Z.divexact a (Z.of_natural g)) (Ref.mk (fst ra) (fst (N.divmod (snd ra) g)))));
    prop ~count:1000 "rat: small/limb agrees with limbs" q2 (fun (ra, rb) ->
        let a = q_of_ref ra and b = q_of_ref rb in
        q_agrees (Q.add a b) (Ref.qadd ra rb)
        && q_agrees (Q.sub a b) (Ref.qsub ra rb)
        && q_agrees (Q.mul a b) (Ref.qmul ra rb)
        && (Q.is_zero b || q_agrees (Q.div a b) (Ref.qdiv ra rb))
        && Q.compare a b = Ref.qcompare ra rb
        && Q.to_string a = Ref.qto_string ra
        && q_agrees (Q.of_string (Ref.qto_string ra)) ra);
    prop ~count:1000 "int: representation is canonical" z2 (fun (ra, rb) ->
        let a = z_of_ref ra and b = z_of_ref rb in
        (a = b) = Z.equal a b
        && Z.sub (Z.add a b) b = a
        && ((not (Z.equal a b)) || Hashtbl.hash a = Hashtbl.hash b));
    prop ~count:1000 "rat: representation is canonical" q2 (fun (ra, rb) ->
        let a = q_of_ref ra and b = q_of_ref rb in
        (a = b) = Q.equal a b
        && Q.sub (Q.add a b) b = a
        && ((not (Q.equal a b)) || Hashtbl.hash a = Hashtbl.hash b));
    prop ~count:1000 "of_int n = of_string (string_of_int n)"
      (oneof [ int; oneofl [ min_int; max_int; min_int + 1; -max_int; 1 lsl 31; -(1 lsl 31) ] ])
      (fun n ->
        Z.of_int n = Z.of_string (string_of_int n)
        && Q.of_int n = Q.of_string (string_of_int n)
        && Z.to_string (Z.of_int n) = string_of_int n
        && Q.to_string (Q.of_int n) = string_of_int n
        && Z.to_int_opt (Z.of_int n) = Some n);
  ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "numeric"
    [
      ( "natural.unit",
        [
          Alcotest.test_case "of_int roundtrip" `Quick test_nat_of_int_roundtrip;
          Alcotest.test_case "of_int negative" `Quick test_nat_of_int_negative;
          Alcotest.test_case "to_int overflow" `Quick test_nat_to_int_overflow;
          Alcotest.test_case "string roundtrip" `Quick test_nat_string_roundtrip;
          Alcotest.test_case "leading zeros" `Quick test_nat_string_leading_zeros;
          Alcotest.test_case "separators" `Quick test_nat_string_separators;
          Alcotest.test_case "invalid strings" `Quick test_nat_string_invalid;
          Alcotest.test_case "carry chain" `Quick test_nat_add_carry_chain;
          Alcotest.test_case "borrow chain" `Quick test_nat_sub_borrow_chain;
          Alcotest.test_case "sub negative" `Quick test_nat_sub_negative;
          Alcotest.test_case "mul known" `Quick test_nat_mul_known;
          Alcotest.test_case "divmod known" `Quick test_nat_divmod_known;
          Alcotest.test_case "divmod by zero" `Quick test_nat_divmod_by_zero;
          Alcotest.test_case "divmod smaller" `Quick test_nat_divmod_smaller;
          Alcotest.test_case "divmod add-back" `Quick test_nat_divmod_addback;
          Alcotest.test_case "gcd" `Quick test_nat_gcd;
          Alcotest.test_case "pow" `Quick test_nat_pow;
          Alcotest.test_case "shift" `Quick test_nat_shift;
          Alcotest.test_case "num_bits" `Quick test_nat_num_bits;
          Alcotest.test_case "to_float" `Quick test_nat_to_float;
        ] );
      ("natural.props", nat_props);
      ( "integer.unit",
        [
          Alcotest.test_case "of_int" `Quick test_int_of_int;
          Alcotest.test_case "signs" `Quick test_int_signs;
          Alcotest.test_case "divmod truncation" `Quick test_int_divmod_truncation;
          Alcotest.test_case "strings" `Quick test_int_string;
          Alcotest.test_case "pow parity" `Quick test_int_pow_parity;
        ] );
      ("integer.props", int_props);
      ( "rational.unit",
        [
          Alcotest.test_case "normalization" `Quick test_rat_normalization;
          Alcotest.test_case "division by zero" `Quick test_rat_div_by_zero;
          Alcotest.test_case "arithmetic" `Quick test_rat_arithmetic_known;
          Alcotest.test_case "floor/ceil" `Quick test_rat_floor_ceil;
          Alcotest.test_case "of_float" `Quick test_rat_of_float;
          Alcotest.test_case "of_string" `Quick test_rat_of_string;
          Alcotest.test_case "to_string" `Quick test_rat_to_string;
          Alcotest.test_case "sums" `Quick test_rat_sum;
        ] );
      ("rational.props", rat_props);
      ("edge_cases", edge_cases);
      ("small.props", small_props);
    ]
