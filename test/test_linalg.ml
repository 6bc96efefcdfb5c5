open Lepts_linalg

let check_float = Alcotest.(check (float 1e-9))
let vec = Alcotest.(array (float 1e-9))

let test_vec_basics () =
  check_float "dot" 11. (Vec.dot [| 1.; 2. |] [| 3.; 4. |]);
  check_float "norm2" 5. (Vec.norm2 [| 3.; 4. |]);
  check_float "norm_inf" 4. (Vec.norm_inf [| 3.; -4. |])

let test_vec_axpy_ip () =
  (* In place over the scaled operand: [x <- a*x + y]. *)
  let x = [| 1.; 2. |] in
  Vec.axpy_into 2. x [| 3.; 4. |] ~into:x;
  Alcotest.check vec "in place" [| 5.; 8. |] x

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch (2 vs 3)") (fun () ->
      ignore (Vec.dot [| 1.; 2. |] [| 1.; 2.; 3. |]))

let test_vec_helpers () =
  Alcotest.check vec "zeros" [| 0.; 0.; 0. |] (Vec.zeros 3);
  Alcotest.(check int) "dim" 3 (Vec.dim [| 1.; 2.; 3. |]);
  let x = [| 1.; 2. |] in
  let c = Vec.copy x in
  c.(0) <- 9.;
  Alcotest.check vec "copy is fresh" [| 1.; 2. |] x;
  (* The [_into] forms may write over an operand. *)
  let y = [| 3.; 4. |] in
  Vec.axpy_into 2. x y ~into:y;
  Alcotest.check vec "axpy_into aliasing y" [| 5.; 8. |] y;
  Vec.sub_into y x ~into:y;
  Alcotest.check vec "sub_into aliasing a" [| 4.; 6. |] y

let suite =
  [ ("vec basics", `Quick, test_vec_basics);
    ("vec axpy in place", `Quick, test_vec_axpy_ip);
    ("vec dimension mismatch", `Quick, test_vec_mismatch);
    ("vec helpers", `Quick, test_vec_helpers) ]
