open Zkflow_field
module F = Babybear

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rng () = Zkflow_util.Rng.create 0xf1e1dL

(* ---- Babybear ---- *)

let test_modulus_structure () =
  check_int "p" 2013265921 F.p;
  check_int "p = 15 * 2^27 + 1" F.p ((15 lsl 27) + 1)

let test_of_int_reduction () =
  check_int "exact" 5 (F.of_int 5);
  check_int "wraps" 1 (F.of_int (F.p + 1));
  check_int "negative" (F.p - 1) (F.of_int (-1));
  check_int "large negative" (F.p - 2) (F.of_int (-2 - (3 * F.p)))

let test_add_sub_inverse () =
  let r = rng () in
  for _ = 1 to 100 do
    let a = F.random r and b = F.random r in
    check_int "sub undoes add" a (F.sub (F.add a b) b);
    check_int "neg" F.zero (F.add a (F.neg a))
  done

let test_mul_identity_and_commutativity () =
  let r = rng () in
  for _ = 1 to 100 do
    let a = F.random r and b = F.random r in
    check_int "one" a (F.mul a F.one);
    check_int "zero" F.zero (F.mul a F.zero);
    check_int "comm" (F.mul a b) (F.mul b a)
  done

let test_inv () =
  let r = rng () in
  for _ = 1 to 50 do
    let a = F.random r in
    if a <> F.zero then check_int "a * a^-1 = 1" F.one (F.mul a (F.inv a))
  done;
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (F.inv F.zero))

let test_pow () =
  check_int "x^0" F.one (F.pow 12345 0);
  check_int "x^1" 12345 (F.pow 12345 1);
  check_int "x^2" (F.mul 12345 12345) (F.pow 12345 2);
  check_int "fermat" F.one (F.pow 31 (F.p - 1))

let prop_mul_associative =
  QCheck.Test.make ~name:"mul associative" ~count:300
    QCheck.(triple (int_bound (F.p - 1)) (int_bound (F.p - 1)) (int_bound (F.p - 1)))
    (fun (a, b, c) -> F.mul (F.mul a b) c = F.mul a (F.mul b c))

let prop_distributive =
  QCheck.Test.make ~name:"distributive" ~count:300
    QCheck.(triple (int_bound (F.p - 1)) (int_bound (F.p - 1)) (int_bound (F.p - 1)))
    (fun (a, b, c) -> F.mul a (F.add b c) = F.add (F.mul a b) (F.mul a c))

(* ---- Fp2 ---- *)

let test_fp2_nonresidue () =
  (* No base-field element squares to ν. *)
  check_int "euler criterion" (F.p - 1) (F.pow Fp2.non_residue ((F.p - 1) / 2))

let test_fp2_mul_inv () =
  let r = rng () in
  for _ = 1 to 50 do
    let a = Fp2.random r in
    if not (Fp2.equal a Fp2.zero) then
      check_bool "a * a^-1" true (Fp2.equal Fp2.one (Fp2.mul a (Fp2.inv a)))
  done;
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Fp2.inv Fp2.zero))

let test_fp2_embedding_homomorphic () =
  let r = rng () in
  for _ = 1 to 50 do
    let a = F.random r and b = F.random r in
    check_bool "mul embeds" true
      (Fp2.equal
         (Fp2.of_base (F.mul a b))
         (Fp2.mul (Fp2.of_base a) (Fp2.of_base b)));
    check_bool "add embeds" true
      (Fp2.equal
         (Fp2.of_base (F.add a b))
         (Fp2.add (Fp2.of_base a) (Fp2.of_base b)))
  done

let test_fp2_u_squares_to_nu () =
  let u = Fp2.make F.zero F.one in
  check_bool "u^2 = nu" true
    (Fp2.equal (Fp2.mul u u) (Fp2.of_base Fp2.non_residue))

let test_fp2_pow_matches_repeated_mul () =
  let a = Fp2.make 3 7 in
  let rec naive n = if n = 0 then Fp2.one else Fp2.mul a (naive (n - 1)) in
  for n = 0 to 12 do
    check_bool "pow" true (Fp2.equal (Fp2.pow a n) (naive n))
  done

let test_fp2_of_digest_prefix () =
  let d = Zkflow_hash.Sha256.digest_string "challenge" in
  let a = Fp2.of_digest_prefix d and b = Fp2.of_digest_prefix d in
  check_bool "deterministic" true (Fp2.equal a b);
  let d2 = Zkflow_hash.Sha256.digest_string "challenge2" in
  check_bool "input-sensitive" false (Fp2.equal a (Fp2.of_digest_prefix d2))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "zkflow_field"
    [
      ( "babybear",
        [
          Alcotest.test_case "modulus structure" `Quick test_modulus_structure;
          Alcotest.test_case "of_int reduction" `Quick test_of_int_reduction;
          Alcotest.test_case "add/sub inverse" `Quick test_add_sub_inverse;
          Alcotest.test_case "mul identities" `Quick test_mul_identity_and_commutativity;
          Alcotest.test_case "inverses" `Quick test_inv;
          Alcotest.test_case "pow" `Quick test_pow;
          q prop_mul_associative;
          q prop_distributive;
        ] );
      ( "fp2",
        [
          Alcotest.test_case "non-residue" `Quick test_fp2_nonresidue;
          Alcotest.test_case "mul/inv" `Quick test_fp2_mul_inv;
          Alcotest.test_case "embedding homomorphic" `Quick test_fp2_embedding_homomorphic;
          Alcotest.test_case "u^2 = nu" `Quick test_fp2_u_squares_to_nu;
          Alcotest.test_case "pow" `Quick test_fp2_pow_matches_repeated_mul;
          Alcotest.test_case "digest sampling" `Quick test_fp2_of_digest_prefix;
        ] );
    ]
