type t = float array

let zeros n = Array.make n 0.
let copy = Array.copy
let dim = Array.length

let check_dims name a b =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name
                   (Array.length a) (Array.length b))

let axpy_into a x y ~into =
  check_dims "axpy_into" x y;
  check_dims "axpy_into" x into;
  for i = 0 to Array.length x - 1 do
    into.(i) <- (a *. x.(i)) +. y.(i)
  done

let sub_into a b ~into =
  check_dims "sub_into" a b;
  check_dims "sub_into" a into;
  for i = 0 to Array.length a - 1 do
    into.(i) <- a.(i) -. b.(i)
  done

let dot a b =
  check_dims "dot" a b;
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm2 a = sqrt (dot a a)

let norm_inf a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. a
