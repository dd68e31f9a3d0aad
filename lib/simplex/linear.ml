module Q = Numeric.Rational

let dot u v =
  if Array.length u <> Array.length v then invalid_arg "Linear.dot: length mismatch";
  let acc = ref Q.zero in
  for i = 0 to Array.length u - 1 do
    (* Points and constraint rows are mostly zeros. *)
    if not (Q.is_zero u.(i) || Q.is_zero v.(i)) then acc := Q.add !acc (Q.mul u.(i) v.(i))
  done;
  !acc

let copy_matrix a = Array.map Array.copy a

(* Forward elimination with first-non-zero pivoting (exact arithmetic
   needs no magnitude-based pivot choice).  Returns the echelon form and
   the pivot column of each eliminated row. *)
let echelon a =
  let m = Array.length a in
  if m = 0 then (a, [])
  else begin
    let n = Array.length a.(0) in
    let a = copy_matrix a in
    let pivots = ref [] in
    let row = ref 0 in
    let col = ref 0 in
    while !row < m && !col < n do
      let r = !row and c = !col in
      let pivot_row = ref (-1) in
      for i = r to m - 1 do
        if !pivot_row < 0 && not (Q.is_zero a.(i).(c)) then pivot_row := i
      done;
      if !pivot_row < 0 then incr col
      else begin
        let p = !pivot_row in
        if p <> r then begin
          let tmp = a.(r) in
          a.(r) <- a.(p);
          a.(p) <- tmp
        end;
        let inv_pivot = Q.inv a.(r).(c) in
        for j = c to n - 1 do
          a.(r).(j) <- Q.mul a.(r).(j) inv_pivot
        done;
        for i = 0 to m - 1 do
          if i <> r && not (Q.is_zero a.(i).(c)) then begin
            let f = a.(i).(c) in
            for j = c to n - 1 do
              a.(i).(j) <- Q.sub a.(i).(j) (Q.mul f a.(r).(j))
            done
          end
        done;
        pivots := (r, c) :: !pivots;
        incr row;
        incr col
      end
    done;
    (a, List.rev !pivots)
  end

let rank a =
  let _, pivots = echelon a in
  List.length pivots

let solve a b =
  let m = Array.length a in
  if m = 0 then Some [||]
  else begin
    let n = Array.length a.(0) in
    if m <> n || Array.length b <> m then
      invalid_arg "Linear.solve: non-square system";
    let aug = Array.init m (fun i -> Array.append (Array.copy a.(i)) [| b.(i) |]) in
    let reduced, pivots = echelon aug in
    if List.length pivots <> n || List.exists (fun (_, c) -> c >= n) pivots then
      None
    else
      Some (Array.init n (fun j -> reduced.(j).(n)))
  end
