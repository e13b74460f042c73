open Zkflow_sketch

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let key i = Bytes.of_string (Printf.sprintf "flow-%d" i)

(* A skewed synthetic stream: flow i appears freq(i) times. *)
let freq i = if i < 5 then 1000 - (i * 100) else 10

let feed add =
  for i = 0 to 99 do
    for _ = 1 to freq i do
      add (key i)
    done
  done

let total = List.init 100 freq |> List.fold_left ( + ) 0

(* ---- Countmin ---- *)

let test_cms_never_underestimates () =
  let s = Countmin.create ~width:256 ~depth:4 in
  feed (fun k -> Countmin.add s k);
  for i = 0 to 99 do
    check_bool "over" true (Countmin.estimate s (key i) >= freq i)
  done

let test_cms_error_bound () =
  let width = 512 in
  let s = Countmin.create ~width ~depth:5 in
  feed (fun k -> Countmin.add s k);
  (* Markov bound per row: error ≤ 2N/width whp across 5 rows. *)
  let bound = 4 * total / width in
  for i = 0 to 99 do
    check_bool
      (Printf.sprintf "flow %d within bound" i)
      true
      (Countmin.estimate s (key i) - freq i <= bound)
  done

let test_cms_weighted_add () =
  let s = Countmin.create ~width:64 ~depth:3 in
  Countmin.add s ~count:50 (key 0);
  check_bool "weighted" true (Countmin.estimate s (key 0) >= 50)

let test_cms_merge_equals_union () =
  let a = Countmin.create ~width:128 ~depth:4 in
  let b = Countmin.create ~width:128 ~depth:4 in
  let u = Countmin.create ~width:128 ~depth:4 in
  for i = 0 to 49 do
    Countmin.add a (key i);
    Countmin.add u (key i)
  done;
  for i = 50 to 99 do
    Countmin.add b (key i);
    Countmin.add u (key i)
  done;
  let m = Countmin.merge a b in
  for i = 0 to 99 do
    check_int "merge = union" (Countmin.estimate u (key i)) (Countmin.estimate m (key i))
  done

let test_cms_merge_dimension_check () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Countmin.merge: dimension mismatch")
    (fun () ->
      ignore
        (Countmin.merge (Countmin.create ~width:8 ~depth:2) (Countmin.create ~width:16 ~depth:2)))

let test_cms_input_validation () =
  Alcotest.check_raises "bad dims" (Invalid_argument "Countmin.create: dimensions")
    (fun () -> ignore (Countmin.create ~width:0 ~depth:1));
  let s = Countmin.create ~width:8 ~depth:1 in
  Alcotest.check_raises "bad count"
    (Invalid_argument "Countmin.add: count must be positive") (fun () ->
      Countmin.add s ~count:0 (key 1))

(* ---- Spacesaving ---- *)

let test_spacesaving_finds_heavy_hitters () =
  let s = Spacesaving.create ~capacity:20 in
  feed (fun k -> Spacesaving.add s k);
  let hh = Spacesaving.heavy_hitters s ~threshold:500 in
  let names = List.map (fun (k, _) -> Bytes.to_string k) hh in
  for i = 0 to 2 do
    check_bool
      (Printf.sprintf "flow %d reported" i)
      true
      (List.mem (Printf.sprintf "flow-%d" i) names)
  done

let test_spacesaving_overestimates () =
  let s = Spacesaving.create ~capacity:10 in
  feed (fun k -> Spacesaving.add s k);
  (* Tracked counts never underestimate the true frequency. *)
  List.iter
    (fun (k, c) ->
      let i = Scanf.sscanf (Bytes.to_string k) "flow-%d" Fun.id in
      check_bool "estimate >= truth" true (c >= freq i))
    (Spacesaving.heavy_hitters s ~threshold:0)

let test_spacesaving_capacity () =
  let s = Spacesaving.create ~capacity:5 in
  feed (fun k -> Spacesaving.add s k);
  check_bool "bounded" true (Spacesaving.tracked s <= 5)

(* ---- Hyperloglog ---- *)

let test_hll_estimate_within_error () =
  let h = Hyperloglog.create ~precision:12 in
  let n = 50_000 in
  for i = 0 to n - 1 do
    Hyperloglog.add h (Bytes.of_string (Printf.sprintf "item-%d" i))
  done;
  let est = Hyperloglog.estimate h in
  let rel = abs_float (est -. float_of_int n) /. float_of_int n in
  check_bool (Printf.sprintf "relative error %.3f" rel) true (rel < 0.05)

let test_hll_duplicates_dont_count () =
  let h = Hyperloglog.create ~precision:10 in
  for _ = 1 to 10_000 do
    Hyperloglog.add h (Bytes.of_string "same")
  done;
  check_bool "about 1" true (Hyperloglog.estimate h < 3.0)

let test_hll_small_range_correction () =
  let h = Hyperloglog.create ~precision:10 in
  for i = 0 to 49 do
    Hyperloglog.add h (Bytes.of_string (Printf.sprintf "x%d" i))
  done;
  let est = Hyperloglog.estimate h in
  check_bool (Printf.sprintf "small range (%.1f)" est) true
    (est > 40.0 && est < 60.0)

let test_hll_merge () =
  let a = Hyperloglog.create ~precision:12 in
  let b = Hyperloglog.create ~precision:12 in
  for i = 0 to 9999 do
    Hyperloglog.add a (Bytes.of_string (Printf.sprintf "a%d" i));
    Hyperloglog.add b (Bytes.of_string (Printf.sprintf "b%d" i))
  done;
  let m = Hyperloglog.merge a b in
  let est = Hyperloglog.estimate m in
  check_bool (Printf.sprintf "union (%.0f)" est) true
    (est > 18_000.0 && est < 22_000.0)

let test_hll_precision_validation () =
  Alcotest.check_raises "too low" (Invalid_argument "Hyperloglog.create: precision")
    (fun () -> ignore (Hyperloglog.create ~precision:3))

(* ---- cross-sketch: memory/accuracy trade-off used by the ablation ---- *)

let test_sketch_memory_accounting () =
  check_int "cms cells" (256 * 4) (Countmin.memory_words (Countmin.create ~width:256 ~depth:4));
  check_int "hll bytes" 1024 (Hyperloglog.memory_bytes (Hyperloglog.create ~precision:10))

let () =
  Alcotest.run "zkflow_sketch"
    [
      ( "countmin",
        [
          Alcotest.test_case "never underestimates" `Quick test_cms_never_underestimates;
          Alcotest.test_case "error bound" `Quick test_cms_error_bound;
          Alcotest.test_case "weighted add" `Quick test_cms_weighted_add;
          Alcotest.test_case "merge = union" `Quick test_cms_merge_equals_union;
          Alcotest.test_case "merge dimension check" `Quick test_cms_merge_dimension_check;
          Alcotest.test_case "input validation" `Quick test_cms_input_validation;
        ] );
      ( "spacesaving",
        [
          Alcotest.test_case "finds heavy hitters" `Quick test_spacesaving_finds_heavy_hitters;
          Alcotest.test_case "overestimates" `Quick test_spacesaving_overestimates;
          Alcotest.test_case "capacity bounded" `Quick test_spacesaving_capacity;
        ] );
      ( "hyperloglog",
        [
          Alcotest.test_case "estimate accuracy" `Quick test_hll_estimate_within_error;
          Alcotest.test_case "duplicates" `Quick test_hll_duplicates_dont_count;
          Alcotest.test_case "small range" `Quick test_hll_small_range_correction;
          Alcotest.test_case "merge" `Quick test_hll_merge;
          Alcotest.test_case "precision validation" `Quick test_hll_precision_validation;
        ] );
      ( "memory",
        [ Alcotest.test_case "accounting" `Quick test_sketch_memory_accounting ] );
    ]
