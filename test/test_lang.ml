open Zkflow_lang
module Machine = Zkflow_zkvm.Machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Differential runner: a Zirc program must behave identically under
   the reference interpreter and compiled onto the zkVM. *)
let run_both ?(input = [||]) program =
  let interp =
    match Zirc.interpret program ~input with
    | Ok o -> o
    | Error e -> Alcotest.fail ("interp: " ^ e)
  in
  let compiled =
    match Zirc.compile program with
    | Ok p -> p
    | Error e -> Alcotest.fail ("compile: " ^ e)
  in
  let machine = Machine.run compiled ~input in
  Alcotest.(check (array int))
    "journals agree" interp.Zirc.journal machine.Machine.journal;
  Alcotest.(check (list int)) "debug agree" interp.Zirc.debug machine.Machine.debug;
  check_int "exit codes agree" interp.Zirc.exit_code machine.Machine.exit_code;
  interp

let test_arithmetic () =
  let p =
    Zirc.
      [
        Let ("a", Int 1000);
        Let ("b", Int 77);
        Commit (Bin (Add, Var "a", Var "b"));
        Commit (Bin (Sub, Var "b", Var "a"));        (* wraps *)
        Commit (Bin (Mul, Var "a", Var "a"));
        Commit (Bin (Xor, Var "a", Var "b"));
        Commit (Bin (Shl, Var "b", Int 4));
        Commit (Bin (Shr, Var "a", Int 3));
      ]
  in
  let o = run_both p in
  check_int "add" 1077 o.Zirc.journal.(0);
  check_int "sub wraps" ((77 - 1000) land 0xffffffff) o.Zirc.journal.(1)

let test_comparisons () =
  let p =
    Zirc.
      [
        Let ("x", Int 5);
        Let ("big", Int 0xffffffff);
        Commit (Bin (Lt, Var "x", Int 6));
        Commit (Bin (Lt, Var "big", Var "x"));  (* unsigned: big > x *)
        Commit (Bin (Slt, Var "big", Var "x")); (* signed: -1 < 5 *)
        Commit (Bin (Eq, Var "x", Int 5));
        Commit (Bin (Neq, Var "x", Int 5));
        Commit (Bin (Le, Var "x", Int 5));
        Commit (Bin (Ge, Var "x", Int 6));
        Commit (Bin (Gt, Var "x", Int 4));
      ]
  in
  let o = run_both p in
  Alcotest.(check (array int)) "truth table" [| 1; 0; 1; 1; 0; 1; 0; 1 |] o.Zirc.journal

let test_control_flow () =
  (* sum of 1..10 via while; plus an if on the result *)
  let p =
    Zirc.
      [
        Let ("i", Int 10);
        Let ("acc", Int 0);
        While
          ( Bin (Gt, Var "i", Int 0),
            [ Set ("acc", Bin (Add, Var "acc", Var "i"));
              Set ("i", Bin (Sub, Var "i", Int 1)) ] );
        If
          ( Bin (Eq, Var "acc", Int 55),
            [ Commit (Int 1) ],
            [ Commit (Int 0) ] );
        Commit (Var "acc");
      ]
  in
  let o = run_both p in
  check_int "correct branch" 1 o.Zirc.journal.(0);
  check_int "sum" 55 o.Zirc.journal.(1)

let test_memory () =
  let p =
    Zirc.
      [
        Let ("base", Int 5000);
        Store (Var "base", Int 42);
        Store (Bin (Add, Var "base", Int 1), Int 43);
        Commit (Load (Var "base"));
        Commit (Load (Bin (Add, Var "base", Int 1)));
        Commit (Load (Int 99999));  (* untouched memory reads 0 *)
      ]
  in
  let o = run_both p in
  Alcotest.(check (array int)) "memory" [| 42; 43; 0 |] o.Zirc.journal

let test_io () =
  let p =
    Zirc.
      [
        Commit Input_avail;
        Let ("x", Read_word);
        Let ("y", Read_word);
        Commit (Bin (Add, Var "x", Var "y"));
        Read_words { dst = Int 100; count = Int 3 };
        Commit_words { src = Int 100; count = Int 3 };
        Commit Input_avail;
        Debug (Var "x");
      ]
  in
  let o = run_both ~input:[| 7; 8; 100; 200; 300 |] p in
  Alcotest.(check (array int)) "io" [| 5; 15; 100; 200; 300; 0 |] o.Zirc.journal

let test_sha_builtin_matches_host () =
  let p =
    Zirc.
      [
        Read_words { dst = Int 100; count = Int 5 };
        Sha { src = Int 100; words = Int 5; dst = Int 200 };
        Commit_words { src = Int 200; count = Int 8 };
      ]
  in
  let input = [| 1; 2; 3; 4; 5 |] in
  let o = run_both ~input p in
  let b = Bytes.create 20 in
  Array.iteri (fun i w -> Bytes.set_int32_be b (4 * i) (Int32.of_int w)) input;
  let expected = Zkflow_zkvm.Guestlib.words_of_digest (Zkflow_hash.Sha256.digest b) in
  Alcotest.(check (array int)) "sha matches host" expected o.Zirc.journal

let test_merkle_builtins_match_host () =
  let n = 5 in
  let rng = Zkflow_util.Rng.create 11L in
  let entries =
    Array.init n (fun _ -> Array.init 8 (fun _ -> Zkflow_util.Rng.int rng 0xffff))
  in
  let input = Array.concat (Array.to_list entries) in
  let p =
    Zirc.
      [
        Read_entries { dst = Int 1003; count = Int n };
        Leaf_hashes { entries = Int 1003; count = Int n; out = Int 5000 };
        Merkle_root { leaves = Int 5000; count = Int n };
        Commit_words { src = Int 5000; count = Int 8 };
      ]
  in
  let o = run_both ~input p in
  let leaves =
    Array.map
      (fun e ->
        let b = Bytes.create 32 in
        Array.iteri (fun i w -> Bytes.set_int32_be b (4 * i) (Int32.of_int w)) e;
        b)
      entries
  in
  let expected =
    Zkflow_zkvm.Guestlib.words_of_digest
      (Zkflow_hash.Digest32.unsafe_to_bytes
         (Zkflow_merkle.Tree.root
            (Zkflow_merkle.Tree.of_leaves ~node:Zkflow_hash.Sha256.digest64
               (Zkflow_util.Column.of_array leaves))))
  in
  Alcotest.(check (array int)) "root matches host tree" expected o.Zirc.journal

let test_cmp8_with_live_registers () =
  (* Cmp8 as the right operand of an addition: the spill path. *)
  let p =
    Zirc.
      [
        Read_words { dst = Int 100; count = Int 8 };
        Read_words { dst = Int 200; count = Int 8 };
        Let ("r", Bin (Add, Int 10, Cmp8 (Int 100, Int 200)));
        Commit (Var "r");
        Let ("r2", Bin (Add, Int 20, Cmp8 (Int 100, Int 100)));
        Commit (Var "r2");
      ]
  in
  let input = Array.append (Array.make 8 1) (Array.make 8 2) in
  let o = run_both ~input p in
  check_int "unequal digests" 10 o.Zirc.journal.(0);
  check_int "equal digests" 21 o.Zirc.journal.(1)

let test_halt_code () =
  let o = run_both Zirc.[ Commit (Int 1); Halt (Int 7); Commit (Int 2) ] in
  check_int "exit" 7 o.Zirc.exit_code;
  check_int "stops at halt" 1 (Array.length o.Zirc.journal)

let test_compile_errors () =
  let is_err p = Result.is_error (Zirc.compile p) in
  check_bool "undefined var" true (is_err Zirc.[ Commit (Var "ghost") ]);
  check_bool "duplicate let" true
    (is_err Zirc.[ Let ("x", Int 1); Let ("x", Int 2) ]);
  check_bool "set before let" true (is_err Zirc.[ Set ("x", Int 1) ]);
  (* depth 8 expression: ((((((((1+1)+1)+1)... right-nested *)
  let rec deep n = if n = 0 then Zirc.Int 1 else Zirc.Bin (Zirc.Add, Zirc.Int 1, deep (n - 1)) in
  check_bool "too deep" true (is_err Zirc.[ Commit (deep 8) ]);
  check_bool "depth 6 ok" false (is_err Zirc.[ Commit (deep 6) ])

let test_interp_guards () =
  check_bool "read past input" true
    (Result.is_error (Zirc.interpret Zirc.[ Commit Read_word ] ~input:[||]));
  check_bool "fuel" true
    (Result.is_error
       (Zirc.interpret ~fuel:1000 Zirc.[ While (Int 1, []) ] ~input:[||]))

(* A complete custom verifiable query written in Zirc: count CLog
   entries whose loss rate exceeds 1% (losses*100 > packets), with the
   in-guest Merkle-root authentication — then prove and verify it. *)
let loss_rate_query =
  Zirc.
    [
      (* input: m, claimed root (8 words), m 8-word entries *)
      Let ("m", Read_word);
      Read_words { dst = Int 0x200; count = Int 8 };
      Read_entries { dst = Int 0x100003; count = Var "m" };
      (* authenticate the entries against the claimed root *)
      Leaf_hashes { entries = Int 0x100003; count = Var "m"; out = Int 0x200000 };
      Merkle_root { leaves = Int 0x200000; count = Var "m" };
      If (Cmp8 (Int 0x200000, Int 0x200), [], [ Halt (Int 1) ]);
      Commit_words { src = Int 0x200; count = Int 8 };
      (* scan: count entries with losses*100 > packets *)
      Let ("i", Int 0);
      Let ("violations", Int 0);
      Let ("base", Int 0);
      While
        ( Bin (Lt, Var "i", Var "m"),
          [
            Set ("base", Bin (Add, Int 0x100003, Bin (Mul, Var "i", Int entry_stride)));
            If
              ( Bin
                  ( Gt,
                    Bin (Mul, Load (Bin (Add, Var "base", Int 7)), Int 100),
                    Load (Bin (Add, Var "base", Int 4)) ),
                [ Set ("violations", Bin (Add, Var "violations", Int 1)) ],
                [] );
            Set ("i", Bin (Add, Var "i", Int 1));
          ] );
      Commit (Var "violations");
    ]

let test_custom_query_proves () =
  let records =
    Zkflow_netflow.Gen.records (Zkflow_util.Rng.create 3L)
      Zkflow_netflow.Gen.default_profile ~router_id:0 ~count:8
  in
  let clog = Zkflow_core.Clog.apply_batch Zkflow_core.Clog.empty records in
  let m = Zkflow_core.Clog.length clog in
  let input =
    Array.concat
      [
        [| m |];
        Zkflow_zkvm.Guestlib.words_of_digest
          (Zkflow_hash.Digest32.to_bytes (Zkflow_core.Clog.root clog));
        Zkflow_core.Clog.words clog;
      ]
  in
  (* host truth *)
  let expected =
    Array.fold_left
      (fun acc (e : Zkflow_core.Clog.entry) ->
        let mtr = e.Zkflow_core.Clog.metrics in
        if mtr.Zkflow_netflow.Record.losses * 100 > mtr.Zkflow_netflow.Record.packets
        then acc + 1
        else acc)
      0 (Zkflow_core.Clog.entries clog)
  in
  (* interpreter and zkVM agree *)
  let o = run_both ~input loss_rate_query in
  check_int "violations" expected o.Zirc.journal.(8);
  (* and the compiled guest proves + verifies like any built-in *)
  let program =
    match Zirc.compile loss_rate_query with Ok p -> p | Error e -> Alcotest.fail e
  in
  let params = Zkflow_zkproof.Params.make ~queries:8 in
  match Zkflow_zkproof.Prove.prove ~params program ~input with
  | Error e -> Alcotest.fail e
  | Ok (receipt, _) ->
    check_bool "custom query receipt verifies" true
      (Zkflow_zkproof.Verify.check ~program receipt);
    (* tampering with an entry must be caught by the in-guest root check *)
    let bad = Array.copy input in
    bad.(9 + 4) <- bad.(9 + 4) + 1;
    let run = Machine.run program ~input:bad in
    check_int "tamper -> halt 1" 1 run.Machine.exit_code

(* ---- concrete syntax ---- *)

let parse_ok src =
  match Zirc_parse.parse src with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let test_parse_basics () =
  let p =
    parse_ok
      {| // sum 1..n from input
         let n = read_word();
         let acc = 0;
         while n > 0 { acc = acc + n; n = n - 1; }
         commit(acc); |}
  in
  let o = run_both ~input:[| 10 |] p in
  check_int "sum" 55 o.Zirc.journal.(0)

let test_parse_precedence () =
  (* 2 + 3 * 4 == 14, (2+3)*4 = 20; shifts bind looser than +, & looser
     than shifts, comparison loosest *)
  let p =
    parse_ok
      {| commit(2 + 3 * 4);
         commit((2 + 3) * 4);
         commit(1 << 2 + 1);
         commit(0xff & 3 << 2);
         commit(1 + 1 == 2); |}
  in
  let o = run_both p in
  Alcotest.(check (array int)) "precedence" [| 14; 20; 8; 12; 1 |] o.Zirc.journal

let test_division () =
  let p =
    parse_ok
      {| commit(100 / 7);
         commit(100 % 7);
         commit(5 / 0);      // RISC-V M: all-ones
         commit(5 % 0);      // RISC-V M: dividend
         // division enables direct rate queries: 4.5% loss in permille
         commit(45 * 1000 / 1000 * 1000 / 1000); |}
  in
  let o = run_both p in
  Alcotest.(check (array int)) "div/rem" [| 14; 2; 0xffffffff; 5; 45 |] o.Zirc.journal

let test_parse_hex_and_mem () =
  let p =
    parse_ok
      {| mem[0x10] = 7;
         mem[0x10 + 1] = mem[0x10] * 2;
         commit(mem[0x11]); |}
  in
  let o = run_both p in
  check_int "hex mem" 14 o.Zirc.journal.(0)

let test_parse_if_else () =
  let p =
    parse_ok
      {| let x = read_word();
         if x <s 0 { commit(1); } else { commit(0); }
         if x == 5 { commit(42); } |}
  in
  let o = run_both ~input:[| 0xffffffff |] p in
  Alcotest.(check (array int)) "signed branch" [| 1 |] o.Zirc.journal

let test_parse_builtin_stmts () =
  let p =
    parse_ok
      {| read_words(100, input_avail());
         sha(100, 3, 200);
         commit_words(200, 8); |}
  in
  let input = [| 5; 6; 7 |] in
  let o = run_both ~input p in
  let b = Bytes.create 12 in
  Array.iteri (fun i w -> Bytes.set_int32_be b (4 * i) (Int32.of_int w)) input;
  Alcotest.(check (array int)) "sha via syntax"
    (Zkflow_zkvm.Guestlib.words_of_digest (Zkflow_hash.Sha256.digest b))
    o.Zirc.journal;
  (* read_entries lays entry i at dst + i * entry_stride() *)
  let p =
    parse_ok
      {| read_entries(103, 2);
         commit(mem[103 + entry_stride() + 7]);
         commit(mem[103 + 8]);
         commit(entry_stride()); |}
  in
  let o = run_both ~input:(Array.init 16 (fun i -> 100 + i)) p in
  Alcotest.(check (array int)) "entries via syntax" [| 115; 0; Zirc.entry_stride |]
    o.Zirc.journal

let test_parse_errors () =
  let bad src = check_bool src true (Result.is_error (Zirc_parse.parse src)) in
  bad "let = 3;";
  bad "commit(1)";           (* missing semicolon *)
  bad "frobnicate(1);";      (* unknown builtin *)
  bad "cmp8(1);";            (* wrong arity *)
  bad "let x = (1 + ;";
  bad "while 1 { commit(1);"; (* unterminated block *)
  bad "let x = 99999999999999999999;";
  bad "let x = 3 $ 4;";
  (* error positions are reported *)
  match Zirc_parse.parse "let x = 1;\nbroken!" with
  | Error e -> check_bool "has position" true (String.length e > 0 && String.contains e '2')
  | Ok _ -> Alcotest.fail "expected parse error"

let test_parse_positions () =
  let src = "let x = 1;\nwhile x < 3 {\n  x = x + 1;\n}\ncommit(x);\nhalt(0);\n" in
  match Zirc_parse.parse_positioned src with
  | Error e -> Alcotest.fail e
  | Ok (prog, positions) ->
    check_int "statement count" 4 (List.length prog);
    check_int "position count" 4 (List.length positions);
    let pos i =
      let p = List.nth positions i in
      (p.Zirc_parse.pos.Zirc_parse.line, p.Zirc_parse.pos.Zirc_parse.col)
    in
    Alcotest.(check (pair int int)) "let" (1, 1) (pos 0);
    Alcotest.(check (pair int int)) "while" (2, 1) (pos 1);
    Alcotest.(check (pair int int)) "commit" (5, 1) (pos 2);
    Alcotest.(check (pair int int)) "halt" (6, 1) (pos 3);
    (* the while carries its body's positions as a sub-block *)
    match (List.nth positions 1).Zirc_parse.sub with
    | [ [ body ] ] ->
      Alcotest.(check (pair int int)) "loop body" (3, 3)
        (body.Zirc_parse.pos.Zirc_parse.line, body.Zirc_parse.pos.Zirc_parse.col)
    | _ -> Alcotest.fail "while should carry exactly one sub-block"

let test_parse_error_position () =
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (match Zirc_parse.parse "let x 1;" with
   | Error e ->
     check_bool "line:col reported" true (contains ~sub:"1:7" e);
     check_bool "expected token named" true (contains ~sub:"expected \"=\"" e)
   | Ok _ -> Alcotest.fail "expected parse error");
  match Zirc_parse.parse "let x = 1;\nlet y = ;" with
  | Error e -> check_bool "second line reported" true (contains ~sub:"2:9" e)
  | Ok _ -> Alcotest.fail "expected parse error"

let test_parse_file_roundtrip () =
  let path = Filename.temp_file "zirc" ".zirc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "commit(123);";
      close_out oc;
      match Zirc_parse.parse_file path with
      | Ok p ->
        let o = run_both p in
        check_int "from file" 123 o.Zirc.journal.(0)
      | Error e -> Alcotest.fail e);
  check_bool "missing file" true (Result.is_error (Zirc_parse.parse_file "/no/such.zirc"))

(* Differential fuzzing: random expression trees must agree between
   the interpreter and the compiled zkVM code. *)
let expr_gen =
  let open QCheck.Gen in
  let ops =
    [| Zirc.Add; Sub; Mul; Divu; Remu; And; Or; Xor; Shl; Shr; Eq; Neq; Lt; Le; Gt; Ge; Slt |]
  in
  let rec gen depth =
    if depth = 0 then map (fun n -> Zirc.Int n) (int_bound 0xffffff)
    else
      frequency
        [
          (1, map (fun n -> Zirc.Int n) (int_bound 0xffffff));
          ( 3,
            map3
              (fun o a b -> Zirc.Bin (ops.(o), a, b))
              (int_bound (Array.length ops - 1))
              (gen (depth - 1))
              (gen (depth - 1)) );
        ]
  in
  gen 3

let prop_random_exprs =
  QCheck.Test.make ~name:"compiled = interpreted on random expressions" ~count:60
    (QCheck.make expr_gen)
    (fun e ->
      let p = Zirc.[ Commit e ] in
      match (Zirc.interpret p ~input:[||], Zirc.compile p) with
      | Ok o, Ok prog ->
        let run = Machine.run prog ~input:[||] in
        run.Machine.journal = o.Zirc.journal
      | Error _, _ | _, Error _ -> false)

let () =
  Alcotest.run "zkflow_lang"
    [
      ( "zirc",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "memory" `Quick test_memory;
          Alcotest.test_case "io" `Quick test_io;
          Alcotest.test_case "sha builtin" `Quick test_sha_builtin_matches_host;
          Alcotest.test_case "merkle builtins" `Quick test_merkle_builtins_match_host;
          Alcotest.test_case "cmp8 spilling" `Quick test_cmp8_with_live_registers;
          Alcotest.test_case "halt code" `Quick test_halt_code;
          Alcotest.test_case "compile errors" `Quick test_compile_errors;
          Alcotest.test_case "interp guards" `Quick test_interp_guards;
          Alcotest.test_case "custom query proves" `Slow test_custom_query_proves;
          QCheck_alcotest.to_alcotest prop_random_exprs;
        ] );
      ( "syntax",
        [
          Alcotest.test_case "basics" `Quick test_parse_basics;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "division" `Quick test_division;
          Alcotest.test_case "hex and mem" `Quick test_parse_hex_and_mem;
          Alcotest.test_case "if/else" `Quick test_parse_if_else;
          Alcotest.test_case "builtin statements" `Quick test_parse_builtin_stmts;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "statement positions" `Quick test_parse_positions;
          Alcotest.test_case "error positions" `Quick test_parse_error_position;
          Alcotest.test_case "file roundtrip" `Quick test_parse_file_roundtrip;
        ] );
    ]
