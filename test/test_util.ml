open Zkflow_util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ---- Bytesx ---- *)

let test_u32_roundtrip () =
  let b = Bytes.create 8 in
  Bytesx.set_u32_be b 0 0xdeadbeefl;
  Bytesx.set_u32_be b 4 1l;
  Alcotest.(check int32) "word 0" 0xdeadbeefl (Bytesx.get_u32_be b 0);
  Alcotest.(check int32) "word 1" 1l (Bytesx.get_u32_be b 4)

let test_u64_roundtrip () =
  let b = Bytes.create 8 in
  Bytesx.set_u64_be b 0 0x0123456789abcdefL;
  Alcotest.(check int64) "u64" 0x0123456789abcdefL (Bytesx.get_u64_be b 0)

let test_u16_roundtrip () =
  let b = Bytes.create 2 in
  Bytesx.set_u16_be b 0 0xbeef;
  check_int "u16" 0xbeef (Bytesx.get_u16_be b 0)

let test_be_byte_order () =
  let b = Bytes.create 4 in
  Bytesx.set_u32_be b 0 0x01020304l;
  check_int "msb first" 1 (Char.code (Bytes.get b 0));
  check_int "lsb last" 4 (Char.code (Bytes.get b 3))

let test_concat () =
  let got = Bytesx.concat [ Bytes.of_string "ab"; Bytes.empty; Bytes.of_string "c" ] in
  check_string "concat" "abc" (Bytes.to_string got)

let test_ct_equal () =
  let a = Bytes.of_string "secret" and b = Bytes.of_string "secret" in
  check_bool "equal" true (Bytesx.equal_constant_time a b);
  check_bool "diff content" false
    (Bytesx.equal_constant_time a (Bytes.of_string "secreT"));
  check_bool "diff length" false
    (Bytesx.equal_constant_time a (Bytes.of_string "secret!"))

let test_xor () =
  let a = Bytes.of_string "\x0f\xf0" and b = Bytes.of_string "\xff\xff" in
  check_string "xor" "\xf0\x0f" (Bytes.to_string (Bytesx.xor a b));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Bytesx.xor: length mismatch") (fun () ->
      ignore (Bytesx.xor a (Bytes.of_string "x")))

(* Windows of every length 0..40 at every offset, so the word loop and
   the byte tail both run, against [Bytes.sub]; one differing byte at
   each position; and the bounds checks. *)
let test_equal_sub () =
  let a = Bytes.init 48 (fun i -> Char.chr (i * 7 land 255)) in
  let b = Bytes.cat (Bytes.of_string "xyz") a in
  for len = 0 to 40 do
    for apos = 0 to 48 - len do
      let same = Bytes.equal (Bytes.sub a apos len) (Bytes.sub b (apos + 3) len) in
      check_bool "equal windows" same (Bytesx.equal_sub a apos b (apos + 3) len);
      for k = 0 to len - 1 do
        let c = Bytes.copy b in
        Bytes.set c (apos + 3 + k) '\255';
        check_bool "one byte differs" false (Bytesx.equal_sub a apos c (apos + 3) len)
      done
    done
  done;
  List.iter
    (fun (apos, bpos, len) ->
      Alcotest.check_raises "out of bounds"
        (Invalid_argument "Bytesx.equal_sub: out of bounds") (fun () ->
          ignore (Bytesx.equal_sub a apos b bpos len)))
    [ (-1, 0, 1); (0, -1, 1); (0, 0, -1); (41, 0, 8); (0, 44, 8); (max_int, 0, 1) ]

let test_int32_list_roundtrip () =
  let ws = [ 0l; 1l; -1l; 0x7fffffffl; Int32.min_int ] in
  Alcotest.(check (list int32)) "roundtrip" ws
    (Bytesx.to_int32_list (Bytesx.of_int32_list ws))

(* ---- Hexcodec ---- *)

let test_hex_encode () =
  check_string "encode" "00ff10" (Hexcodec.encode (Bytes.of_string "\x00\xff\x10"))

let test_hex_decode () =
  (match Hexcodec.decode "00ff10" with
   | Ok b -> check_string "decode" "\x00\xff\x10" (Bytes.to_string b)
   | Error e -> Alcotest.fail e);
  (match Hexcodec.decode "ABCD" with
   | Ok b -> check_string "uppercase" "\xab\xcd" (Bytes.to_string b)
   | Error e -> Alcotest.fail e)

let test_hex_reject () =
  check_bool "odd length" true (Result.is_error (Hexcodec.decode "abc"));
  check_bool "bad char" true (Result.is_error (Hexcodec.decode "zz"))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Hexcodec.decode_exn (Hexcodec.encode b)))

(* ---- Varint ---- *)

let varint_roundtrip v =
  let buf = Buffer.create 10 in
  Varint.write buf v;
  let b = Buffer.to_bytes buf in
  let got, off = Varint.read b 0 in
  (* [put] writes the same bytes in place, at an offset. *)
  let placed = Bytes.make (Bytes.length b + 2) '\xff' in
  let next = Varint.put placed 1 v in
  got = v && off = Bytes.length b && Varint.size v = Bytes.length b
  && next = 1 + Bytes.length b
  && Bytes.equal (Bytes.sub placed 1 (Bytes.length b)) b

let test_varint_known () =
  let encode v =
    let buf = Buffer.create 10 in
    Varint.write buf v;
    Hexcodec.encode (Buffer.to_bytes buf)
  in
  check_string "0" "00" (encode 0);
  check_string "127" "7f" (encode 127);
  check_string "128" "8001" (encode 128);
  check_string "300" "ac02" (encode 300)

let test_varint_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Varint.write: negative")
    (fun () -> Varint.write (Buffer.create 1) (-1));
  Alcotest.check_raises "negative put" (Invalid_argument "Varint.put: negative")
    (fun () -> ignore (Varint.put (Bytes.create 10) 0 (-1)))

let test_varint_truncated () =
  Alcotest.check_raises "truncated" (Invalid_argument "Varint.read: truncated")
    (fun () -> ignore (Varint.read (Bytes.of_string "\x80") 0))

(* Nine bytes carry 62 bits: [max_int] round-trips, and a ninth byte
   reaching bit 62 is refused rather than read as a negative int. *)
let test_varint_overflow () =
  let buf = Buffer.create 10 in
  Varint.write buf max_int;
  let b = Buffer.to_bytes buf in
  Alcotest.(check int) "max_int in 9 bytes" 9 (Bytes.length b);
  Alcotest.(check (pair int int)) "max_int round-trips" (max_int, 9) (Varint.read b 0);
  List.iter
    (fun hex ->
      Alcotest.check_raises hex (Invalid_argument "Varint.read: overflow") (fun () ->
          ignore (Varint.read (Hexcodec.decode_exn hex) 0)))
    [ "ffffffffffffffff40"; "ffffffffffffffff7f"; "808080808080808040"; "ffffffffffffffff8001" ]

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(map abs int)
    varint_roundtrip

(* ---- Rng ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let base = Rng.create 7L in
  let child = Rng.split base in
  check_bool "distinct streams"
    (Rng.next_int64 base <> Rng.next_int64 child)
    true

let test_rng_int_bounds () =
  let r = Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_float_bounds () =
  let r = Rng.create 2L in
  for _ = 1 to 1000 do
    let v = Rng.float r 3.5 in
    check_bool "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_zipf_skew () =
  (* Rank 1 must dominate for s = 1.2: basic sanity on the CDF. *)
  let r = Rng.create 3L in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let k = Rng.zipf r ~n:100 ~s:1.2 in
    counts.(k - 1) <- counts.(k - 1) + 1
  done;
  check_bool "rank1 > rank2" true (counts.(0) > counts.(1));
  check_bool "rank1 > 10%" true (counts.(0) > 2000);
  check_bool "all ranks valid" true (Array.for_all (fun c -> c >= 0) counts)

let test_rng_exponential_mean () =
  let r = Rng.create 4L in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r 2.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean near 0.5" true (abs_float (mean -. 0.5) < 0.02)

let test_rng_bytes_len () =
  let r = Rng.create 5L in
  check_int "len 0" 0 (Bytes.length (Rng.bytes r 0));
  check_int "len 7" 7 (Bytes.length (Rng.bytes r 7));
  check_int "len 32" 32 (Bytes.length (Rng.bytes r 32))

let test_rng_shuffle_permutation () =
  let r = Rng.create 6L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

(* ---- Sorted ---- *)

let cmp = Int.compare

let test_sorted_is_sorted () =
  check_bool "empty" true (Sorted.is_sorted ~cmp [||]);
  check_bool "single" true (Sorted.is_sorted ~cmp [| 3 |]);
  check_bool "yes" true (Sorted.is_sorted ~cmp [| 1; 2; 2; 5 |]);
  check_bool "no" false (Sorted.is_sorted ~cmp [| 2; 1 |])

let test_sorted_bsearch () =
  let a = [| 1; 3; 5; 7; 9 |] in
  Alcotest.(check (option int)) "hit" (Some 2) (Sorted.bsearch ~cmp a 5);
  Alcotest.(check (option int)) "miss" None (Sorted.bsearch ~cmp a 4);
  Alcotest.(check (option int)) "first" (Some 0) (Sorted.bsearch ~cmp a 1);
  Alcotest.(check (option int)) "last" (Some 4) (Sorted.bsearch ~cmp a 9)

let test_sorted_lower_bound () =
  let a = [| 10; 20; 30 |] in
  check_int "below" 0 (Sorted.lower_bound ~cmp a 5);
  check_int "exact" 1 (Sorted.lower_bound ~cmp a 20);
  check_int "between" 2 (Sorted.lower_bound ~cmp a 25);
  check_int "above" 3 (Sorted.lower_bound ~cmp a 99)

let test_merge_uniq () =
  let got =
    Sorted.merge_uniq ~cmp ~combine:(fun a b -> a + b) [| 1; 3; 5 |] [| 2; 3; 6 |]
  in
  Alcotest.(check (array int)) "merged" [| 1; 2; 6; 5; 6 |] got

let prop_merge_sorted =
  QCheck.Test.make ~name:"merge_uniq keeps sortedness" ~count:200
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (xs, ys) ->
      let dedup l = List.sort_uniq compare l |> Array.of_list in
      let merged =
        Sorted.merge_uniq ~cmp ~combine:(fun a _ -> a) (dedup xs) (dedup ys)
      in
      Sorted.is_sorted ~cmp merged)

(* ---- Wire ---- *)

let test_wire_roundtrip () =
  let w = Wire.writer () in
  Wire.w_int w 42;
  Wire.w_bool w true;
  Wire.w_bytes w (Bytes.of_string "hello");
  Wire.w_string w "world";
  Wire.w_list w (Wire.w_int w) [ 1; 2; 3 ];
  Wire.w_array w (Wire.w_int w) [| 7; 8 |];
  let b = Wire.contents w in
  match
    Wire.decode b (fun r ->
        let i = Wire.r_int r in
        let flag = Wire.r_bool r in
        let by = Wire.r_bytes r in
        let s = Wire.r_string r in
        let l = Wire.r_list r (fun () -> Wire.r_int r) in
        let a = Wire.r_array r (fun () -> Wire.r_int r) in
        (i, flag, by, s, l, a))
  with
  | Error e -> Alcotest.fail e
  | Ok (i, flag, by, s, l, a) ->
    check_int "int" 42 i;
    check_bool "bool" true flag;
    check_string "bytes" "hello" (Bytes.to_string by);
    check_string "string" "world" s;
    Alcotest.(check (list int)) "list" [ 1; 2; 3 ] l;
    Alcotest.(check (array int)) "array" [| 7; 8 |] a

let test_wire_rejects_malformed () =
  let enc f =
    let w = Wire.writer () in
    f w;
    Wire.contents w
  in
  (* trailing bytes *)
  let b = enc (fun w -> Wire.w_int w 1; Wire.w_int w 2) in
  check_bool "trailing" true
    (Result.is_error (Wire.decode b (fun r -> Wire.r_int r)));
  (* truncated bytes payload *)
  let b = enc (fun w -> Wire.w_bytes w (Bytes.make 40 'x')) in
  let cut = Bytes.sub b 0 10 in
  check_bool "truncated" true
    (Result.is_error (Wire.decode cut (fun r -> Wire.r_bytes r)));
  (* bool out of range *)
  let b = enc (fun w -> Wire.w_int w 7) in
  check_bool "bad bool" true (Result.is_error (Wire.decode b (fun r -> Wire.r_bool r)));
  (* implausible count *)
  let b = enc (fun w -> Wire.w_int w 1_000_000) in
  check_bool "huge list" true
    (Result.is_error (Wire.decode b (fun r -> Wire.r_list r (fun () -> Wire.r_int r))))

let prop_wire_fuzz_no_crash =
  QCheck.Test.make ~name:"wire decode never raises" ~count:300
    QCheck.(string_of_size Gen.(0 -- 80))
    (fun s ->
      match
        Wire.decode (Bytes.of_string s) (fun r ->
            let _ = Wire.r_int r in
            let _ = Wire.r_bytes r in
            Wire.r_list r (fun () -> Wire.r_int r))
      with
      | Ok _ | Error _ -> true)

(* ---- Jsonx ---- *)

let test_jsonx_escape_specials () =
  check_string "quote+backslash" "a\\\"b\\\\c" (Jsonx.escape "a\"b\\c");
  check_string "newline tab" "\\n\\t\\r" (Jsonx.escape "\n\t\r");
  check_string "control" "\\u0001" (Jsonx.escape "\x01");
  check_string "quoted" "\"x\"" (Jsonx.quote "x")

let test_jsonx_parse_basics () =
  let ok s v =
    match Jsonx.parse s with
    | Ok got -> check_bool ("parse " ^ s) true (got = v)
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  ok "null" Jsonx.Null;
  ok " [1, 2.5, -3e2] " (Jsonx.Arr [ Jsonx.Num 1.; Jsonx.Num 2.5; Jsonx.Num (-300.) ]);
  ok "{\"a\":true,\"b\":[{}]}"
    (Jsonx.Obj [ ("a", Jsonx.Bool true); ("b", Jsonx.Arr [ Jsonx.Obj [] ]) ]);
  ok "\"\\u0041\\n\"" (Jsonx.Str "A\n");
  List.iter
    (fun s -> check_bool ("reject " ^ s) true (Result.is_error (Jsonx.parse s)))
    [ ""; "{"; "[1,]"; "nul"; "1 2"; "\"\x01\""; "\"unterminated" ]

(* The escaping helper shared by lint --json, stats --json, and the
   trace exporter: any OCaml string must survive quote -> parse
   byte-for-byte, so no emitter can produce output a JSON consumer
   rejects. *)
let prop_jsonx_quote_roundtrip =
  QCheck.Test.make ~name:"Jsonx.quote output parses back to the input" ~count:500
    QCheck.(string_of_size Gen.(0 -- 120))
    (fun s -> Jsonx.parse (Jsonx.quote s) = Ok (Jsonx.Str s))

let prop_jsonx_obj_roundtrip =
  QCheck.Test.make ~name:"Jsonx.to_string output is valid JSON" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 40)) (list_of_size Gen.(0 -- 8) small_int))
    (fun (s, ints) ->
      let v =
        Jsonx.Obj
          [
            ("name", Jsonx.Str s);
            ("xs", Jsonx.Arr (List.map (fun i -> Jsonx.Num (float_of_int i)) ints));
            ("ok", Jsonx.Bool true);
            ("none", Jsonx.Null);
          ]
      in
      Jsonx.parse (Jsonx.to_string v) = Ok v)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "zkflow_util"
    [
      ( "bytesx",
        [
          Alcotest.test_case "u32 roundtrip" `Quick test_u32_roundtrip;
          Alcotest.test_case "u64 roundtrip" `Quick test_u64_roundtrip;
          Alcotest.test_case "u16 roundtrip" `Quick test_u16_roundtrip;
          Alcotest.test_case "big-endian order" `Quick test_be_byte_order;
          Alcotest.test_case "concat" `Quick test_concat;
          Alcotest.test_case "constant-time equal" `Quick test_ct_equal;
          Alcotest.test_case "xor" `Quick test_xor;
          Alcotest.test_case "equal_sub" `Quick test_equal_sub;
          Alcotest.test_case "int32 list roundtrip" `Quick test_int32_list_roundtrip;
        ] );
      ( "hexcodec",
        [
          Alcotest.test_case "encode" `Quick test_hex_encode;
          Alcotest.test_case "decode" `Quick test_hex_decode;
          Alcotest.test_case "reject malformed" `Quick test_hex_reject;
          q prop_hex_roundtrip;
        ] );
      ( "varint",
        [
          Alcotest.test_case "known encodings" `Quick test_varint_known;
          Alcotest.test_case "rejects negative" `Quick test_varint_negative;
          Alcotest.test_case "rejects truncated" `Quick test_varint_truncated;
          Alcotest.test_case "rejects overflow" `Quick test_varint_overflow;
          q prop_varint_roundtrip;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "zipf skew" `Quick test_rng_zipf_skew;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_len;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "sorted",
        [
          Alcotest.test_case "is_sorted" `Quick test_sorted_is_sorted;
          Alcotest.test_case "bsearch" `Quick test_sorted_bsearch;
          Alcotest.test_case "lower_bound" `Quick test_sorted_lower_bound;
          Alcotest.test_case "merge_uniq" `Quick test_merge_uniq;
          q prop_merge_sorted;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_wire_rejects_malformed;
          q prop_wire_fuzz_no_crash;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "escape specials" `Quick test_jsonx_escape_specials;
          Alcotest.test_case "parse basics" `Quick test_jsonx_parse_basics;
          q prop_jsonx_quote_roundtrip;
          q prop_jsonx_obj_roundtrip;
        ] );
    ]
