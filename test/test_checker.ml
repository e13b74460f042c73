(* Direct unit tests of the verifier-side step semantics
   (Zkflow_zkproof.Checker): each rejection branch is exercised with a
   hand-forged row, independently of the full receipt machinery. *)

open Zkflow_zkvm
open Zkflow_zkproof

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A program with one of each instruction shape at a known pc. *)
let program =
  Asm.(
    assemble
      [
        add a0 t0 t1;          (* 0: Alu *)
        addi a0 t0 5;          (* 1: Alui *)
        li a0 7;               (* 2: Lui *)
        lw a0 t0 100;          (* 3: Lw *)
        sw a1 t0 100;          (* 4: Sw *)
        beq t0 t1 "target";    (* 5: Branch *)
        label "target";
        jalr ra t0 0;          (* 6: Jalr *)
        ecall;                 (* 7: Ecall *)
        halt 0;                (* 8.. *)
      ])

(* A genuine traced run to harvest well-formed rows from. *)
let traced =
  let guest =
    Asm.(
      assemble
        [
          read_word t0;
          li t1 3;
          add t2 t0 t1;
          sw t2 t1 50;
          lw t3 t1 50;
          commit t3;
          li s9 50;
          li t4 4;
          sha ~src:s9 ~words:t4 ~dst:s10;
          li t5 60;
          read_block ~dst:t5 ~count:t4;
          commit_block ~src:t5 ~count:t4;
          halt 0;
        ])
  in
  (guest, Machine.run ~trace:true guest ~input:[| 39; 1; 2; 3; 4 |])

let genuine_rows_all_check () =
  let guest, run = traced in
  Array.iteri
    (fun i row ->
      (match Checker.check_row ~program:guest row with
       | Ok accesses ->
         check_int
           (Printf.sprintf "row %d access count" i)
           row.Trace.mem_count (List.length accesses)
       | Error e -> Alcotest.fail (Printf.sprintf "row %d: %s" i e));
      if i < Array.length run.Machine.rows - 1 then
        match Checker.check_pair ~program:guest row ~next:run.Machine.rows.(i + 1) with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Printf.sprintf "pair %d: %s" i e))
    run.Machine.rows

let exec_row ~pc ~next_pc ~rs1 ~rs2 ~rd ?(aux = [||]) () =
  {
    Trace.cycle = 0; pc; next_pc; kind = Trace.Exec;
    rs1; rs2; rd; aux; mem_pos = 0; mem_count = 0;
  }

let rejects what row =
  match Checker.check_row ~program row with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail (what ^ ": forged row accepted")

let accepts what row =
  match Checker.check_row ~program row with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" what e)

let test_alu_semantics_enforced () =
  accepts "honest add" (exec_row ~pc:0 ~next_pc:1 ~rs1:20 ~rs2:22 ~rd:42 ());
  rejects "wrong sum" (exec_row ~pc:0 ~next_pc:1 ~rs1:20 ~rs2:22 ~rd:43 ());
  rejects "wrong next_pc" (exec_row ~pc:0 ~next_pc:5 ~rs1:20 ~rs2:22 ~rd:42 ());
  rejects "stray aux" (exec_row ~pc:0 ~next_pc:1 ~rs1:20 ~rs2:22 ~rd:42 ~aux:[| 1 |] ())

let test_alui_lui_semantics () =
  accepts "honest addi" (exec_row ~pc:1 ~next_pc:2 ~rs1:10 ~rs2:0 ~rd:15 ());
  rejects "addi wrong" (exec_row ~pc:1 ~next_pc:2 ~rs1:10 ~rs2:0 ~rd:16 ());
  rejects "addi rs2 nonzero" (exec_row ~pc:1 ~next_pc:2 ~rs1:10 ~rs2:9 ~rd:15 ());
  accepts "honest lui" (exec_row ~pc:2 ~next_pc:3 ~rs1:0 ~rs2:0 ~rd:7 ());
  rejects "lui wrong" (exec_row ~pc:2 ~next_pc:3 ~rs1:0 ~rs2:0 ~rd:8 ())

let test_memory_rows () =
  (* lw a0 t0 100 with rs1 = 4 → addr 104; loaded value free (rd) *)
  accepts "honest lw" (exec_row ~pc:3 ~next_pc:4 ~rs1:4 ~rs2:0 ~rd:77 ~aux:[| 104 |] ());
  rejects "lw wrong addr" (exec_row ~pc:3 ~next_pc:4 ~rs1:4 ~rs2:0 ~rd:77 ~aux:[| 105 |] ());
  rejects "lw oob addr"
    (exec_row ~pc:3 ~next_pc:4 ~rs1:(Trace.ram_limit + 5) ~rs2:0 ~rd:0
       ~aux:[| ((Trace.ram_limit + 105) land 0xffffffff) |] ());
  accepts "honest sw" (exec_row ~pc:4 ~next_pc:5 ~rs1:4 ~rs2:9 ~rd:0 ~aux:[| 104 |] ());
  rejects "sw rd nonzero" (exec_row ~pc:4 ~next_pc:5 ~rs1:4 ~rs2:9 ~rd:9 ~aux:[| 104 |] ())

let test_branch_rows () =
  (* beq t0 t1 target(=6) at pc 5 *)
  accepts "taken" (exec_row ~pc:5 ~next_pc:6 ~rs1:3 ~rs2:3 ~rd:0 ());
  accepts "not taken" (exec_row ~pc:5 ~next_pc:6 ~rs1:3 ~rs2:4 ~rd:0 ());
  (* (target happens to be pc+1 here, so both go to 6; a wrong target
     is still rejected) *)
  rejects "bogus next" (exec_row ~pc:5 ~next_pc:0 ~rs1:3 ~rs2:3 ~rd:0 ())

let test_jalr_rows () =
  (* jalr ra t0 0 at pc 6: rd = 7, next = rs1 *)
  accepts "honest jalr" (exec_row ~pc:6 ~next_pc:8 ~rs1:8 ~rs2:0 ~rd:7 ());
  rejects "wrong link" (exec_row ~pc:6 ~next_pc:8 ~rs1:8 ~rs2:0 ~rd:9 ());
  rejects "wrong target" (exec_row ~pc:6 ~next_pc:3 ~rs1:8 ~rs2:0 ~rd:7 ())

let test_ecall_rows () =
  (* pc 7 is a raw ecall; row.rs1 = call number *)
  accepts "halt" (exec_row ~pc:7 ~next_pc:7 ~rs1:0 ~rs2:0 ~rd:0 ~aux:[| 0; 0 |] ());
  rejects "halt must self-loop" (exec_row ~pc:7 ~next_pc:8 ~rs1:0 ~rs2:0 ~rd:0 ~aux:[| 0; 0 |] ());
  accepts "read" (exec_row ~pc:7 ~next_pc:8 ~rs1:1 ~rs2:0 ~rd:123 ~aux:[| 0; 0 |] ());
  accepts "commit" (exec_row ~pc:7 ~next_pc:8 ~rs1:2 ~rs2:55 ~rd:0 ~aux:[| 0; 0 |] ());
  rejects "commit rd nonzero" (exec_row ~pc:7 ~next_pc:8 ~rs1:2 ~rs2:55 ~rd:1 ~aux:[| 0; 0 |] ());
  rejects "unknown number" (exec_row ~pc:7 ~next_pc:8 ~rs1:42 ~rs2:0 ~rd:0 ~aux:[| 0; 0 |] ());
  rejects "sha must stay on pc" (exec_row ~pc:7 ~next_pc:8 ~rs1:3 ~rs2:100 ~rd:0 ~aux:[| 4; 200 |] ());
  rejects "bad aux shape" (exec_row ~pc:7 ~next_pc:8 ~rs1:2 ~rs2:55 ~rd:0 ~aux:[| 0 |] ());
  (* block calls: a1 = address in rs2, the count and a3 in aux, then
     the words *)
  let refused what needle row =
    match Checker.check_row ~program row with
    | Ok _ -> Alcotest.fail (what ^ ": forged row accepted")
    | Error e -> Alcotest.(check string) what needle e
  in
  let block ~call ~addr aux = exec_row ~pc:7 ~next_pc:8 ~rs1:call ~rs2:addr ~rd:0 ~aux () in
  (match Checker.check_row ~program (block ~call:6 ~addr:100 [| 3; 0; 7; 8; 9 |]) with
   | Ok accesses ->
     check_bool "read block: four register reads, then the words written" true
       (List.filteri (fun i _ -> i >= 4) accesses
       = List.init 3 (fun i -> { Checker.addr = 100 + i; write = true; value = Some (7 + i) }))
   | Error e -> Alcotest.fail e);
  accepts "commit block of eight"
    (block ~call:7 ~addr:100 (Array.init 10 (fun i -> if i = 0 then 8 else i)));
  refused "read count 0" "read block: count 0 outside 1..8" (block ~call:6 ~addr:100 [| 0; 0 |]);
  refused "commit count 9" "commit block: count 9 outside 1..8"
    (block ~call:7 ~addr:100 (Array.make 11 9));
  refused "dst past RAM" "read block: words 268435455..268435456 outside RAM"
    (block ~call:6 ~addr:(Trace.ram_limit - 1) [| 2; 0; 1; 2 |]);
  refused "src past RAM" "commit block: words 268435454..268435456 outside RAM"
    (block ~call:7 ~addr:(Trace.ram_limit - 2) [| 3; 0; 1; 2; 3 |]);
  refused "fewer words than the count" "read block: aux shape"
    (block ~call:6 ~addr:100 [| 3; 0; 1; 2 |]);
  refused "block rd nonzero" "commit block: shape"
    { (block ~call:7 ~addr:100 [| 1; 0; 5 |]) with Trace.rd = 1 };
  refused "block must advance" "next_pc: expected 8, row says 7"
    { (block ~call:6 ~addr:100 [| 1; 0; 5 |]) with Trace.next_pc = 7 }

let test_pc_out_of_program () =
  rejects "pc beyond program" (exec_row ~pc:999 ~next_pc:1000 ~rs1:0 ~rs2:0 ~rd:0 ())

(* ---- sha block rows ---- *)

let sha_rows () =
  let _, run = traced in
  let rows = run.Machine.rows in
  let blocks =
    Array.to_list rows
    |> List.filter (fun r -> match r.Trace.kind with Trace.Sha_block _ -> true | _ -> false)
  in
  (fst traced, List.hd blocks)

let test_sha_block_checks () =
  let guest, block_row = sha_rows () in
  (match Checker.check_row ~program:guest block_row with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  (* forge the post state *)
  (match block_row.Trace.kind with
   | Trace.Sha_block sb ->
     let bad_post = Array.copy sb.Trace.post in
     bad_post.(0) <- bad_post.(0) lxor 1;
     let forged =
       { block_row with Trace.kind = Trace.Sha_block { sb with Trace.post = bad_post } }
     in
     (match Checker.check_row ~program:guest forged with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "forged compression accepted");
     (* forge a padding word *)
     let bad_block = Array.copy sb.Trace.block in
     bad_block.(15) <- bad_block.(15) lxor 1;
     let forged_pad =
       { block_row with Trace.kind = Trace.Sha_block { sb with Trace.block = bad_block } }
     in
     (match Checker.check_row ~program:guest forged_pad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "forged padding accepted");
     (* wrong IV on block 0 *)
     let bad_pre = Array.copy sb.Trace.pre in
     bad_pre.(0) <- bad_pre.(0) lxor 1;
     let forged_pre =
       { block_row with Trace.kind = Trace.Sha_block { sb with Trace.pre = bad_pre } }
     in
     (match Checker.check_row ~program:guest forged_pre with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "forged IV accepted")
   | Trace.Exec -> Alcotest.fail "expected a sha block row")

let test_pair_rules () =
  let guest, run = traced in
  let rows = run.Machine.rows in
  (* find the sha ecall row (followed by a block) *)
  let ecall_idx = ref (-1) in
  Array.iteri
    (fun i r ->
      if
        !ecall_idx < 0 && i + 1 < Array.length rows
        && (match rows.(i + 1).Trace.kind with Trace.Sha_block _ -> true | _ -> false)
        && r.Trace.kind = Trace.Exec
      then ecall_idx := i)
    rows;
  check_bool "found sha ecall" true (!ecall_idx >= 0);
  let e = rows.(!ecall_idx) in
  (* honest pair passes *)
  (match Checker.check_pair ~program:guest e ~next:rows.(!ecall_idx + 1) with
   | Ok () -> ()
   | Error msg -> Alcotest.fail msg);
  (* an Exec row may not follow a sha ecall *)
  (match Checker.check_pair ~program:guest e ~next:{ e with Trace.cycle = e.Trace.cycle + 1 } with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "sha ecall followed by exec accepted");
  (* cycle must increment *)
  (match
     Checker.check_pair ~program:guest rows.(0)
       ~next:{ (rows.(1)) with Trace.cycle = 5 }
   with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "cycle jump accepted");
  (* pc hand-off must match *)
  match
    Checker.check_pair ~program:guest rows.(0)
      ~next:{ (rows.(1)) with Trace.pc = rows.(1).Trace.pc + 1 }
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "pc mismatch accepted"

let test_matches_semantics () =
  let expected = { Checker.addr = 10; write = false; value = Some 5 } in
  let entry v = { Trace.addr = 10; time = 3; write = false; value = v } in
  check_bool "match" true (Checker.matches expected (entry 5) ~time:3);
  check_bool "wrong value" false (Checker.matches expected (entry 6) ~time:3);
  check_bool "wrong time" false (Checker.matches expected (entry 5) ~time:4);
  let wild = { expected with Checker.value = None } in
  check_bool "wildcard value" true (Checker.matches wild (entry 99) ~time:3)

let test_jacc_step () =
  let guest, run = traced in
  let commit_row =
    Array.to_list run.Machine.rows
    |> List.find (fun r -> Checker.is_commit_row ~program:guest r)
  in
  let c0 = Zkflow_hash.Chain.genesis in
  let c1 = Checker.jacc_step ~program:guest c0 commit_row in
  check_bool "commit extends" false (Zkflow_hash.Chain.equal c0 c1);
  let non_commit = run.Machine.rows.(0) in
  let c2 = Checker.jacc_step ~program:guest c0 non_commit in
  check_bool "non-commit identity" true (Zkflow_hash.Chain.equal c0 c2);
  (* a block commit's words, in order; a block read moves nothing *)
  let block ~call aux = exec_row ~pc:7 ~next_pc:8 ~rs1:call ~rs2:100 ~rd:0 ~aux () in
  let step row = Checker.jacc_step ~program c0 row in
  check_bool "block commit absorbs its words in order" true
    (Zkflow_hash.Chain.equal
       (step (block ~call:7 [| 3; 0; 5; 6; 7 |]))
       (Zkflow_hash.Chain.extend_words c0 [| 5; 6; 7 |]));
  check_bool "order matters" false
    (Zkflow_hash.Chain.equal
       (step (block ~call:7 [| 3; 0; 5; 6; 7 |]))
       (step (block ~call:7 [| 3; 0; 7; 6; 5 |])));
  check_bool "block read identity" true
    (Zkflow_hash.Chain.equal c0 (step (block ~call:6 [| 3; 0; 5; 6; 7 |])))

let () =
  Alcotest.run "zkflow_checker"
    [
      ( "checker",
        [
          Alcotest.test_case "genuine rows all check" `Quick genuine_rows_all_check;
          Alcotest.test_case "alu semantics" `Quick test_alu_semantics_enforced;
          Alcotest.test_case "alui/lui" `Quick test_alui_lui_semantics;
          Alcotest.test_case "memory rows" `Quick test_memory_rows;
          Alcotest.test_case "branch rows" `Quick test_branch_rows;
          Alcotest.test_case "jalr rows" `Quick test_jalr_rows;
          Alcotest.test_case "ecall rows" `Quick test_ecall_rows;
          Alcotest.test_case "pc out of program" `Quick test_pc_out_of_program;
          Alcotest.test_case "sha block forgery" `Quick test_sha_block_checks;
          Alcotest.test_case "pair rules" `Quick test_pair_rules;
          Alcotest.test_case "matches" `Quick test_matches_semantics;
          Alcotest.test_case "journal accumulator" `Quick test_jacc_step;
        ] );
    ]
