(* Static analyzer: every defect class caught on a bad guest and absent
   from the corrected one; the built-in guests and the prover gate. *)

module A = Zkflow_analysis
module Finding = Zkflow_analysis.Finding
module Isa = Zkflow_zkvm.Isa
module Trace = Zkflow_zkvm.Trace
module Program = Zkflow_zkvm.Program
module Zirc = Zkflow_lang.Zirc
open Zkflow_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let analyze instrs = A.check_instrs (Array.of_list instrs)

let has ~severity r pass =
  let pool =
    match severity with `Error -> Finding.errors r | `Warning -> Finding.warnings r
  in
  List.exists (fun f -> f.Finding.pass = pass) pool

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The terminal-halt idiom every assembled path ends with. *)
let halt_seq = Isa.[ Lui (11, 0); Lui (10, 0); Ecall ]

(* ---- ZR0 defect classes ---- *)

let test_uninit_register () =
  let bad = analyze (Isa.Alu (ADD, 5, 6, 0) :: halt_seq) in
  check_bool "uninit read flagged" true (has ~severity:`Error bad "uninit");
  let good = analyze (Isa.Lui (6, 7) :: Isa.Alu (ADD, 5, 6, 0) :: halt_seq) in
  check_bool "initialized read ok" true (Finding.ok good)

let test_oob_store () =
  let bad = analyze (Isa.Lui (5, Trace.ram_limit) :: Isa.Sw (0, 5, 0) :: halt_seq) in
  check_bool "store past RAM flagged" true (has ~severity:`Error bad "membounds");
  let good =
    analyze (Isa.Lui (5, Trace.ram_limit - 1) :: Isa.Sw (0, 5, 0) :: halt_seq)
  in
  check_bool "last word ok" true (Finding.ok good)

let test_oob_load_via_offset () =
  (* constant propagation must fold base+imm *)
  let bad =
    analyze (Isa.Lui (5, Trace.ram_limit - 1) :: Isa.Lw (6, 5, 1) :: halt_seq)
  in
  check_bool "folded address flagged" true (has ~severity:`Error bad "membounds")

let test_unreachable_block () =
  let bad = analyze (Isa.Jal (0, 3) :: Isa.Lui (5, 1) :: Isa.Lui (5, 2) :: halt_seq) in
  check_bool "dead code warned" true (has ~severity:`Warning bad "unreachable");
  check_bool "warning does not gate" true (Finding.ok bad);
  let good = analyze (Isa.Lui (5, 1) :: halt_seq) in
  check_bool "no dead code, no warning" false (has ~severity:`Warning good "unreachable")

let test_fall_off_end () =
  let bad = analyze [ Isa.Lui (5, 1) ] in
  check_bool "fall-off flagged" true (has ~severity:`Error bad "control");
  let good = analyze (Isa.Lui (5, 1) :: halt_seq) in
  check_bool "terminal halt ok" true (Finding.ok good)

let test_wild_jump () =
  let bad = analyze (Isa.Jal (0, 999) :: halt_seq) in
  check_bool "out-of-program jump flagged" true (has ~severity:`Error bad "control")

let test_ecall_protocol () =
  let bad = analyze (Isa.Lui (10, 9) :: Isa.Ecall :: halt_seq) in
  check_bool "unknown ecall flagged" true (has ~severity:`Error bad "ecall");
  let good = analyze (Isa.Lui (11, 1) :: Isa.Lui (10, 4) :: Isa.Ecall :: halt_seq) in
  check_bool "debug ecall ok" true (Finding.ok good);
  let uninit_arg = analyze (Isa.Lui (10, 4) :: Isa.Ecall :: halt_seq) in
  check_bool "uninit ecall argument flagged" true
    (has ~severity:`Error uninit_arg "uninit");
  (* block calls: a1 = address, a2 = count in 1..8 *)
  let block ~call ~addr ~count =
    analyze (Isa.Lui (11, addr) :: Isa.Lui (12, count) :: Isa.Lui (10, call) :: Isa.Ecall :: halt_seq)
  in
  check_bool "block read in RAM ok" true (Finding.ok (block ~call:6 ~addr:100 ~count:8));
  check_bool "block read dst past RAM flagged" true
    (has ~severity:`Error (block ~call:6 ~addr:(Trace.ram_limit - 4) ~count:8) "membounds");
  check_bool "block commit src past RAM flagged" true
    (has ~severity:`Error (block ~call:7 ~addr:Trace.ram_limit ~count:1) "membounds");
  check_bool "block count 9 flagged" true
    (has ~severity:`Error (block ~call:7 ~addr:100 ~count:9) "membounds");
  check_bool "block count 0 flagged" true
    (has ~severity:`Error (block ~call:6 ~addr:100 ~count:0) "membounds")

let test_unbounded_loop () =
  (* a loop whose bound depends on input (the limit comes from an
     ecall) cannot be proven and must stay Unbounded with its header *)
  let bad =
    analyze
      (Isa.Lui (10, 1) :: Isa.Ecall                     (* a0 := read_word *)
      :: Isa.Lui (5, 0)                                 (* i := 0 *)
      :: Isa.Alui (ADD, 5, 5, 1)                        (* 3: i += 1 *)
      :: Isa.Branch (BNE, 5, 10, 3)                     (* while i <> a0 *)
      :: halt_seq)
  in
  (match bad.Finding.cycle_bound with
   | Finding.Unbounded headers -> check_bool "loop header" true (List.mem 3 headers)
   | Finding.Bounded _ -> Alcotest.fail "data-dependent loop not detected");
  let good = analyze (Isa.Lui (5, 1) :: halt_seq) in
  match good.Finding.cycle_bound with
  | Finding.Bounded n -> check_int "straight-line bound" 4 n
  | Finding.Unbounded _ -> Alcotest.fail "acyclic program reported unbounded"

let test_counted_loop_bound () =
  (* a constant countdown loop now gets a *proven* bound: the interval
     domain resolves init=10, step=-1, limit=0 exactly. The machine
     takes 24 cycles; the bound must dominate it without being wild. *)
  let prog =
    Isa.Lui (5, 10) :: Isa.Alui (ADD, 5, 5, -1) :: Isa.Branch (BNE, 5, 0, 1)
    :: halt_seq
  in
  let r = analyze prog in
  check_bool "counted loop is clean" true (Finding.ok r);
  match r.Finding.cycle_bound with
  | Finding.Bounded n ->
    let cycles =
      (Zkflow_zkvm.Machine.run (Program.of_instrs (Array.of_list prog)) ~input:[||])
        .Zkflow_zkvm.Machine.cycles
    in
    check_bool "bound dominates execution" true (n >= cycles);
    check_bool "bound is tight-ish" true (n <= 3 * cycles + 8)
  | Finding.Unbounded _ -> Alcotest.fail "constant loop should be bounded"

let test_sha_cycle_weight () =
  let r =
    analyze
      (Isa.Lui (11, 0x100) :: Isa.Lui (12, 16) :: Isa.Lui (13, 0x200)
      :: Isa.Lui (10, 3) :: Isa.Ecall :: halt_seq)
  in
  match r.Finding.cycle_bound with
  | Finding.Bounded n ->
    check_int "sha rows counted" (8 + Trace.sha_block_count 16) n
  | Finding.Unbounded _ -> Alcotest.fail "acyclic program reported unbounded"

let test_call_return_precision () =
  (* a loop counter in a callee-crossing register must not be flagged:
     calls are function-local edges, not merges across call sites *)
  let items =
    Isa.
      [
        (* main *)
        Lui (5, 0);               (* 0: t0 := 0 *)
        Jal (1, 6);               (* 1: call helper *)
        Alui (ADD, 5, 5, 1);      (* 2: t0 += 1 (uses t0 across the call) *)
        Lui (11, 0);              (* 3 *)
        Lui (10, 0);              (* 4 *)
        Ecall;                    (* 5: halt *)
        (* helper at 6 *)
        Lui (6, 1);               (* 6 *)
        Jalr (0, 1, 0);           (* 7: return *)
      ]
  in
  let r = analyze items in
  check_bool "no false uninit across call" true (Finding.ok r)

let test_malformed_register () =
  let bad = analyze (Isa.Alu (ADD, 40, 0, 0) :: halt_seq) in
  check_bool "register out of range" true (has ~severity:`Error bad "wellformed")

(* ---- Zirc lint ---- *)

let zirc_check prog = A.check_zirc prog

let test_zirc_use_before_assign () =
  let bad =
    Zirc.
      [
        If (Input_avail, [ Let ("y", Int 1) ], []);
        Commit (Var "y");
        Halt (Int 0);
      ]
  in
  check_bool "use-before-assign flagged" true
    (has ~severity:`Error (zirc_check bad) "zirc-assign");
  let good =
    Zirc.
      [
        Let ("y", Int 0);
        If (Input_avail, [ Set ("y", Int 1) ], []);
        Commit (Var "y");
        Halt (Int 0);
      ]
  in
  check_bool "assigned on all paths ok" true (Finding.ok (zirc_check good))

let test_zirc_depth () =
  let rec deep n = if n = 0 then Zirc.Int 1 else Zirc.Bin (Add, Int 1, deep (n - 1)) in
  let bad = Zirc.[ Commit (deep 7); Halt (Int 0) ] in
  check_bool "8-register expression flagged" true
    (has ~severity:`Error (zirc_check bad) "zirc-depth");
  let good = Zirc.[ Commit (deep 6); Halt (Int 0) ] in
  check_bool "7-register expression ok" true (Finding.ok (zirc_check good))

let test_zirc_dead_store_and_divzero () =
  let p =
    Zirc.
      [
        Let ("x", Int 1);
        Commit (Var "x");
        Set ("x", Bin (Divu, Var "x", Int 0));
        Halt (Int 0);
      ]
  in
  let r = zirc_check p in
  check_bool "dead store warned" true (has ~severity:`Warning r "zirc-dead");
  check_bool "division by zero warned" true (has ~severity:`Warning r "zirc-divzero");
  check_bool "warnings do not gate" true (Finding.ok r)

let test_zirc_scope () =
  let dup = Zirc.[ Let ("x", Int 1); Let ("x", Int 2); Halt (Int 0) ] in
  check_bool "shadowing flagged" true
    (has ~severity:`Error (zirc_check dup) "zirc-scope");
  let undecl = Zirc.[ Commit (Var "ghost"); Halt (Int 0) ] in
  check_bool "undeclared flagged" true
    (has ~severity:`Error (zirc_check undecl) "zirc-scope")

let test_zirc_reserved_store () =
  let bad = Zirc.[ Store (Int Zirc.locals_base, Int 1); Halt (Int 0) ] in
  check_bool "write into locals region flagged" true
    (has ~severity:`Error (zirc_check bad) "zirc-membounds")

(* ---- built-in guests ---- *)

let test_builtin_guests_clean () =
  let agg = A.check ~subject:"aggregation" (Lazy.force Guests.aggregation_program) in
  check_bool "aggregation guest has no defects" true (Finding.ok agg);
  let q = A.check ~subject:"query" (Lazy.force Guests.query_program) in
  check_bool "query guest has no defects" true (Finding.ok q);
  (* both carry data-dependent loops: the bound must be honest *)
  (match agg.Finding.cycle_bound with
   | Finding.Unbounded (_ :: _) -> ()
   | _ -> Alcotest.fail "aggregation guest should report unbounded loops");
  (* the unused gl_copy_words runtime helper is dead code: warned, not
     gated *)
  check_bool "dead helper warned" true (has ~severity:`Warning agg "unreachable")

let test_report_json () =
  let r = analyze (Isa.Alu (ADD, 5, 6, 0) :: halt_seq) in
  let js = Finding.report_json r in
  check_bool "json has pass" true (contains ~sub:"\"pass\":\"uninit\"" js);
  check_bool "json has severity" true (contains ~sub:"\"severity\":\"error\"" js)

(* ---- the prover gate ---- *)

let defective_program =
  lazy (Program.of_instrs (Array.of_list (Isa.Alu (ADD, 5, 6, 0) :: halt_seq)))

let test_gate_refuses () =
  Unix.putenv "ZKFLOW_NO_ANALYZE" "";
  match
    Prover_service.prove_custom (Lazy.force defective_program) ~input:[||]
  with
  | Ok _ -> Alcotest.fail "defective guest was proved"
  | Error msg ->
    check_bool "mentions analysis" true (contains ~sub:"static analysis" msg);
    check_bool "mentions override" true (contains ~sub:"ZKFLOW_NO_ANALYZE" msg)

let test_gate_override () =
  Unix.putenv "ZKFLOW_NO_ANALYZE" "1";
  let result =
    Prover_service.prove_custom (Lazy.force defective_program) ~input:[||]
  in
  Unix.putenv "ZKFLOW_NO_ANALYZE" "";
  match result with
  | Ok (receipt, run) ->
    check_int "ran to completion" 0 run.Zkflow_zkvm.Machine.exit_code;
    let program = Lazy.force defective_program in
    (match Zkflow_zkproof.Verify.verify ~program receipt with
     | Ok () -> ()
     | Error e -> Alcotest.fail ("receipt does not verify: " ^ e))
  | Error e -> Alcotest.fail ("override did not bypass the gate: " ^ e)

let test_gate_passes_clean_guest () =
  Unix.putenv "ZKFLOW_NO_ANALYZE" "";
  let clean = Program.of_instrs (Array.of_list (Isa.Lui (5, 1) :: halt_seq)) in
  match Prover_service.prove_custom clean ~input:[||] with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("clean guest refused: " ^ e)

(* ---- parser positions and pragmas ---- *)

let parse_err src =
  match Zkflow_lang.Zirc_parse.parse src with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e -> e

let test_parse_positions () =
  (* first column of a fresh line *)
  check_bool "line 2 col 1" true (contains ~sub:"2:1" (parse_err "let x = 1;\n@"));
  (* tabs advance one column each *)
  check_bool "tab columns" true (contains ~sub:"1:3" (parse_err "\t\t@"));
  (* CRLF endings: \r is plain whitespace, lines don't double-count *)
  check_bool "crlf line 3" true
    (contains ~sub:"3:1" (parse_err "let x = 1;\r\nlet y = 2;\r\n@"));
  (* an error on the last character of a line *)
  check_bool "end of line" true (contains ~sub:"1:9" (parse_err "let x = @\n"))

let test_trusted_pragma () =
  let src = "//@ trusted\nlet x = read_word();\ncommit(x);\nhalt(0);" in
  (match Zkflow_lang.Zirc_parse.parse_positioned src with
  | Error e -> Alcotest.fail e
  | Ok (_, ps) ->
    check_bool "first stmt trusted" true
      (List.hd ps).Zkflow_lang.Zirc_parse.trusted;
    check_bool "second stmt not" false
      (List.nth ps 1).Zkflow_lang.Zirc_parse.trusted);
  match Zkflow_lang.Zirc_parse.parse "//@ nonsense\nhalt(0);" with
  | Ok _ -> Alcotest.fail "unknown pragma accepted"
  | Error e -> check_bool "names the pragma" true (contains ~sub:"nonsense" e)

(* ---- interval domain ---- *)

let test_interval_ops () =
  let module I = A.Interval in
  let r = I.alu Isa.ADD (I.range 0 10) (I.const 5) in
  check_bool "add shifts bounds" true
    (I.contains r 5 && I.contains r 15 && not (I.contains r 16));
  (* singleton arguments follow machine semantics exactly *)
  check_int "divu by zero" 0xffff_ffff (I.alu_eval Isa.DIVU 7 0);
  check_bool "divu by zero lifted" true
    (I.is_const (I.alu Isa.DIVU (I.const 7) (I.const 0)) = Some 0xffff_ffff);
  check_int "remu by zero" 7 (I.alu_eval Isa.REMU 7 0);
  (* strided values keep their congruence through scaling *)
  let idx = I.alu Isa.MUL (I.range 0 100) (I.const 8) in
  check_bool "stride 8" true (I.contains idx 16 && not (I.contains idx 12));
  (* widening jumps past thresholds instead of inching *)
  let w = I.widen (I.range 0 1) (I.range 0 2) in
  check_bool "widen is extensive" true (w.I.hi >= 2 && w.I.lo = 0);
  (* branch refinement cuts infeasible edges *)
  match I.refine_branch Isa.BLTU (I.const 5) (I.const 3) ~taken:true with
  | None -> ()
  | Some _ -> Alcotest.fail "5 <u 3 cannot be taken"

(* ---- finding order, dedupe, sarif ---- *)

let test_normalize_sorts_dedupes () =
  let at line col pass =
    Finding.error ~loc:(Finding.Src { line; col }) ~pass "m"
  in
  let a = at 1 5 "a" and b = at 2 1 "b" in
  let n = Finding.normalize [ b; a; b; a ] in
  check_int "deduped" 2 (List.length n);
  check_bool "position-sorted" true (List.hd n = a);
  (* pc findings sort after source findings, stably by pass *)
  let p = Finding.error ~loc:(Finding.Pc 0) ~pass:"z" "m" in
  check_bool "src before pc" true (List.hd (Finding.normalize [ p; a ]) = a)

let test_sarif_smoke () =
  let clean = analyze halt_seq in
  let dirty = analyze (Isa.Alu (Isa.ADD, 5, 6, 7) :: halt_seq) in
  let s = Finding.sarif_json [ clean; dirty ] in
  check_bool "sarif version" true (contains ~sub:"\"2.1.0\"" s);
  check_bool "driver name" true (contains ~sub:"zkflow-audit" s);
  check_bool "uninit rule listed" true (contains ~sub:"uninit" s)

(* ---- taint ---- *)

let audit_src src =
  match Zkflow_lang.Zirc_parse.parse_positioned src with
  | Error e -> Alcotest.fail e
  | Ok (prog, ps) -> A.audit_zirc ~subject:"test" ~positions:ps prog

let test_taint_journal () =
  let r = audit_src "let x = read_word();\ncommit(x);\nhalt(0);" in
  check_bool "unvalidated commit flagged" true (has ~severity:`Error r "taint-journal");
  (* raw ZR0: a block read taints RAM, and a block commit of it
     publishes unvalidated input; a call in between to a helper that
     validates nothing leaves RAM tainted *)
  let io = Isa.[ Lui (11, 100); Lui (12, 8); Lui (10, 6); Ecall ] in
  let commit = Isa.[ Lui (11, 100); Lui (12, 8); Lui (10, 7); Ecall ] in
  let r = A.audit (Array.of_list (io @ commit @ halt_seq)) in
  check_bool "unvalidated block commit flagged" true (has ~severity:`Error r "taint-journal");
  let helper = List.length io + 1 + List.length commit + List.length halt_seq in
  let r =
    A.audit
      (Array.of_list
         (io @ [ Isa.Jal (1, helper) ] @ commit @ halt_seq @ [ Isa.Jalr (0, 1, 0) ]))
  in
  check_bool "block commit after a call flagged" true (has ~severity:`Error r "taint-journal")

let test_taint_addr () =
  let r = audit_src "let x = read_word();\nlet y = mem[x];\ncommit(y);\nhalt(0);" in
  check_bool "input-derived address flagged" true
    (has ~severity:`Error r "taint-addr")

let test_taint_laundered () =
  let r =
    audit_src
      "let x = read_word();\nif x < 100 { commit(x); } else { halt(1); }\nhalt(0);"
  in
  check_bool "comparison launders" false (has ~severity:`Error r "taint-journal")

let test_trusted_suppression () =
  (* a trusted source is demoted to Checked at the read... *)
  let src = "//@ trusted\nlet x = read_word();\ncommit(x);\nhalt(0);" in
  (match Zkflow_lang.Zirc_parse.parse_positioned src with
  | Error e -> Alcotest.fail e
  | Ok (prog, ps) ->
    let findings, _ = A.Taint.check_zirc ~positions:ps prog in
    check_int "trusted source commits clean" 0 (List.length findings));
  (* ...while a trusted sink has its finding suppressed and counted *)
  let src = "let x = read_word();\n//@ trusted\ncommit(x);\nhalt(0);" in
  match Zkflow_lang.Zirc_parse.parse_positioned src with
  | Error e -> Alcotest.fail e
  | Ok (prog, ps) ->
    let findings, suppressed = A.Taint.check_zirc ~positions:ps prog in
    check_int "no findings" 0 (List.length findings);
    check_bool "suppression counted" true (suppressed >= 1)

let test_audit_drops_compiler_unreachable () =
  let r = audit_src "halt(0);\ncommit(1);" in
  check_bool "source-level dead code reported" true
    (has ~severity:`Warning r "zirc-unreachable");
  check_bool "lowering artifacts dropped" false
    (List.exists (fun f -> f.Finding.pass = "unreachable") r.Finding.findings)

(* ---- the example guests, verbatim and mutated ---- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The test binary runs from _build/default/test; find the examples by
   walking up (works both from the build tree and the source tree). *)
let example name =
  let rec up d fuel =
    let cand = Filename.concat (Filename.concat d "examples") name in
    if Sys.file_exists cand then cand
    else if fuel = 0 then Alcotest.fail ("cannot locate examples/" ^ name)
    else up (Filename.dirname d) (fuel - 1)
  in
  up (Sys.getcwd ()) 6

let replace ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.fail ("mutation target absent: " ^ sub)
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

let examples = [ "loss_audit.zirc"; "traffic_totals.zirc" ]

let test_examples_audit_clean () =
  List.iter
    (fun path ->
      let r = audit_src (read_file (example path)) in
      check_int (path ^ " has no findings") 0 (List.length r.Finding.findings))
    examples

let test_example_mutants_rejected () =
  List.iter
    (fun path ->
      let src = read_file (example path) in
      (* drop the in-guest root check: the committed region is now
         unvalidated input *)
      let no_check =
        replace ~sub:"if cmp8(0x200000, 0x200) { } else { halt(1); }" ~by:"" src
      in
      check_bool (path ^ " taint mutant flagged") true
        (has ~severity:`Error (audit_src no_check) "taint-journal");
      (* move the root buffer past the end of guest RAM *)
      let oob = replace ~sub:"read_words(0x200, 8);" ~by:"read_words(0x10000000, 8);" src in
      check_bool (path ^ " membounds mutant flagged") true
        (has ~severity:`Error (audit_src oob) "zirc-membounds"))
    examples

(* ---- gate budget ---- *)

let test_gate_budget () =
  let prog = Program.of_instrs (Array.of_list halt_seq) in
  (match A.gate ~subject:"tiny guest" prog with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match A.gate ~subject:"tiny guest" ~budget:2 prog with
  | Ok () -> Alcotest.fail "expected a budget refusal"
  | Error e ->
    check_bool "names the bound" true (contains ~sub:"cycle bound" e);
    check_bool "names the override" true (contains ~sub:"ZKFLOW_NO_ANALYZE" e)

let () =
  Alcotest.run "zkflow_analysis"
    [
      ( "zr0",
        [
          Alcotest.test_case "uninit register" `Quick test_uninit_register;
          Alcotest.test_case "oob store" `Quick test_oob_store;
          Alcotest.test_case "oob load via offset" `Quick test_oob_load_via_offset;
          Alcotest.test_case "unreachable block" `Quick test_unreachable_block;
          Alcotest.test_case "fall off end" `Quick test_fall_off_end;
          Alcotest.test_case "wild jump" `Quick test_wild_jump;
          Alcotest.test_case "ecall protocol" `Quick test_ecall_protocol;
          Alcotest.test_case "unbounded loop" `Quick test_unbounded_loop;
          Alcotest.test_case "counted loop bound" `Quick test_counted_loop_bound;
          Alcotest.test_case "sha cycle weight" `Quick test_sha_cycle_weight;
          Alcotest.test_case "call/return precision" `Quick test_call_return_precision;
          Alcotest.test_case "malformed register" `Quick test_malformed_register;
        ] );
      ( "zirc",
        [
          Alcotest.test_case "use before assign" `Quick test_zirc_use_before_assign;
          Alcotest.test_case "expression depth" `Quick test_zirc_depth;
          Alcotest.test_case "dead store, div zero" `Quick test_zirc_dead_store_and_divzero;
          Alcotest.test_case "scope" `Quick test_zirc_scope;
          Alcotest.test_case "reserved region store" `Quick test_zirc_reserved_store;
        ] );
      ( "guests",
        [
          Alcotest.test_case "built-ins are clean" `Quick test_builtin_guests_clean;
          Alcotest.test_case "report json" `Quick test_report_json;
        ] );
      ( "parser",
        [
          Alcotest.test_case "error positions" `Quick test_parse_positions;
          Alcotest.test_case "trusted pragma" `Quick test_trusted_pragma;
        ] );
      ( "interval",
        [ Alcotest.test_case "domain operations" `Quick test_interval_ops ] );
      ( "findings",
        [
          Alcotest.test_case "normalize sorts and dedupes" `Quick
            test_normalize_sorts_dedupes;
          Alcotest.test_case "sarif smoke" `Quick test_sarif_smoke;
        ] );
      ( "taint",
        [
          Alcotest.test_case "journal sink" `Quick test_taint_journal;
          Alcotest.test_case "address sink" `Quick test_taint_addr;
          Alcotest.test_case "comparison launders" `Quick test_taint_laundered;
          Alcotest.test_case "trusted suppression" `Quick test_trusted_suppression;
          Alcotest.test_case "compiler dead code dropped" `Quick
            test_audit_drops_compiler_unreachable;
        ] );
      ( "examples",
        [
          Alcotest.test_case "audit clean" `Quick test_examples_audit_clean;
          Alcotest.test_case "mutants rejected" `Quick test_example_mutants_rejected;
        ] );
      ( "gate",
        [
          Alcotest.test_case "refuses defective" `Quick test_gate_refuses;
          Alcotest.test_case "budget refusal" `Quick test_gate_budget;
          Alcotest.test_case "env override" `Slow test_gate_override;
          Alcotest.test_case "passes clean" `Slow test_gate_passes_clean_guest;
        ] );
    ]
