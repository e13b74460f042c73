(* Differential analyzer-vs-VM soundness fuzzer.

   The analyzer's contract (Finding.report): when a report has no
   Error findings and [proven_safe] set, the only traps the machine
   may raise are the cycle limit and reading past the end of the
   input. So every such program, run with a fixed cycle allowance and
   eight times that many input words (one cycle reads at most eight),
   must halt or stop on one of those two traps.

   Programs come from two generators, run through the same property:

   - [gen_provable]: register inits, constant-address loads/stores,
     host calls following the ecall protocol (block reads and commits
     of 0–9 words among them), and counted countdown
     loops — the shapes the interval domain is supposed to prove.
     Most samples are analyzer-clean, so the property bites.
   - [gen_noise]: unconstrained instruction soup over every
     instruction shape, after a prologue that gives every register a
     small value and with branch and jump targets inside the program,
     so about a fifth of the samples are analyzer-clean and any the
     analyzer wrongly blesses is exactly the soundness bug this
     harness exists to catch. Without the prologue and the targets,
     46 of 10,000 samples were clean; with them, the first clean
     samples found the halt idiom bug (a jump straight onto the
     [ecall] of [li a0, 0; ecall] skips the [li]), kept below as a
     test.

   A final sanity check asserts both generators actually produce
   enough analyzer-clean programs, so the property tests cannot
   silently go vacuous.

   The same provable programs, and the built-in guests, check the
   trace recorder: each traced run proves and verifies, every row
   passes the verifier's step checks, and the verifier's decoders read
   the committed columns back to the recorder's ints. *)

module Isa = Zkflow_zkvm.Isa
module Machine = Zkflow_zkvm.Machine
module Program = Zkflow_zkvm.Program
module Finding = Zkflow_analysis.Finding

let analyze prog = Zkflow_analysis.Zr0_checks.analyze (Array.of_list prog)

(* Analyzer-clean: no error, every access and ecall number proven. *)
let clean (r : Finding.report) = Finding.errors r = [] && r.Finding.proven_safe

let pp_prog prog =
  String.concat "; "
    (List.mapi (fun i x -> Printf.sprintf "%d:%s" i (Format.asprintf "%a" Isa.pp x)) prog)

(* ---- generators ---- *)

(* Scratch registers t0..s4 (5..12); 13 is reserved for loop counters
   so a loop body can't clobber its own induction variable. *)
let g_reg = QCheck.Gen.int_range 5 12

let g_alu =
  QCheck.Gen.oneofl
    Isa.[ ADD; SUB; MUL; AND; OR; XOR; SLL; SRL; SRA; SLT; SLTU; DIVU; REMU ]

(* One generated "step" is a short instruction sequence that keeps the
   machine state well-defined: ALU over scratch registers, constant
   addresses only, ecalls with the number loaded immediately before. *)
let g_step : Isa.t list QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      ( 4,
        map
          (fun (op, (rd, (r1, r2))) -> [ Isa.Alu (op, rd, r1, r2) ])
          (pair g_alu (pair g_reg (pair g_reg g_reg))) );
      ( 4,
        map
          (fun (op, (rd, (r1, imm))) -> [ Isa.Alui (op, rd, r1, imm) ])
          (pair g_alu
             (pair g_reg (pair g_reg (int_range (-0x8000) 0xffff)))) );
      ( 2,
        map
          (fun (rd, imm) -> [ Isa.Lui (rd, imm) ])
          (pair g_reg (int_range 0 0xffff_ffff)) );
      (* store-then-load through a constant word address *)
      ( 2,
        map
          (fun (rs, (rd, addr)) -> [ Isa.Sw (rs, 0, addr); Isa.Lw (rd, 0, addr) ])
          (pair g_reg (pair g_reg (int_range 0 0xfff))) );
      (* read one input word into a scratch register *)
      ( 2,
        map
          (fun rd -> [ Isa.Lui (10, 1); Isa.Ecall; Isa.Alu (Isa.ADD, rd, 10, 0) ])
          g_reg );
      (* poll input_avail *)
      ( 1,
        map
          (fun rd -> [ Isa.Lui (10, 5); Isa.Ecall; Isa.Alu (Isa.ADD, rd, 10, 0) ])
          g_reg );
      (* commit a scratch register *)
      ( 1,
        map
          (fun rs ->
            [ Isa.Alu (Isa.ADD, 11, rs, 0); Isa.Lui (10, 2); Isa.Ecall ])
          g_reg );
      (* debug-print a constant *)
      ( 1,
        map
          (fun v -> [ Isa.Lui (11, v); Isa.Lui (10, 4); Isa.Ecall ])
          (int_range 0 0xffff) );
      (* block read / block commit at a constant address; counts 0 and
         9 trap, and the analyzer must say so *)
      ( 2,
        map
          (fun (call, (addr, count)) ->
            [ Isa.Lui (11, addr); Isa.Lui (12, count); Isa.Lui (10, call); Isa.Ecall ])
          (pair (oneofl [ 6; 7 ]) (pair (int_range 0 0xfff) (int_range 0 9))) );
    ]

let halt_seq = Isa.[ Lui (11, 0); Lui (10, 0); Ecall ]

(* Initialise every register a step might read. *)
let prologue =
  List.concat_map (fun r -> [ Isa.Lui (r, r * 1111) ]) [ 5; 6; 7; 8; 9; 10; 11; 12 ]

(* li cnt C; body; cnt -= 1; bne cnt, x0 -> top of body. *)
let wrap_loop ~at body trips =
  let body = List.concat body in
  [ Isa.Lui (13, trips) ]
  @ body
  @ [
      Isa.Alui (Isa.ADD, 13, 13, -1);
      Isa.Branch (Isa.BNE, 13, 0, at + 1);
    ]

let gen_provable : Isa.t list QCheck.Gen.t =
  let open QCheck.Gen in
  pair
    (pair (list_size (int_range 0 4) g_step) (list_size (int_range 0 4) g_step))
    (pair (option (pair (list_size (int_range 1 3) g_step) (int_range 1 20)))
       (list_size (int_range 0 3) g_step))
  >|= fun ((pre, mid), (loop, post)) ->
  let pre_part = prologue @ List.concat pre @ List.concat mid in
  let looped =
    match loop with
    | None -> pre_part
    | Some (body, trips) ->
      pre_part @ wrap_loop ~at:(List.length pre_part) body trips
  in
  looped @ List.concat post @ halt_seq

(* Unconstrained soup over every instruction shape. The prologue
   gives every register a small value (a0 the debug-print call), so
   no read is uninitialised; branch and jump targets land inside the
   body or on the halt's [li]s, never on its [ecall]. Indirect jumps,
   which the analyzer never proves, are rarer than the rest. *)
let noise_prologue =
  List.init 31 (fun i ->
      let r = i + 1 in
      Isa.Lui (r, if r = 10 then 4 else r * 37))

let gen_noise : Isa.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_range 0 31 in
  let instr =
    frequency
      [
        ( 3,
          map
            (fun (op, (rd, (r1, r2))) -> Isa.Alu (op, rd, r1, r2))
            (pair g_alu (pair reg (pair reg reg))) );
        ( 3,
          map
            (fun (op, (rd, (r1, imm))) -> Isa.Alui (op, rd, r1, imm))
            (pair g_alu (pair reg (pair reg (int_range (-0x8000) 0xffff)))) );
        (3, map (fun (rd, imm) -> Isa.Lui (rd, imm)) (pair reg (int_range 0 0xffff)));
        ( 3,
          map
            (fun ((rd, r1), imm) -> Isa.Lw (rd, r1, imm))
            (pair (pair reg reg) (int_range 0 0xffff)) );
        ( 3,
          map
            (fun ((rs2, r1), imm) -> Isa.Sw (rs2, r1, imm))
            (pair (pair reg reg) (int_range 0 0xffff)) );
        ( 3,
          map
            (fun ((op, r1), (r2, tgt)) -> Isa.Branch (op, r1, r2, tgt))
            (pair
               (pair (oneofl Isa.[ BEQ; BNE; BLT; BGE; BLTU; BGEU ]) reg)
               (pair reg (int_range 0 40))) );
        (3, map (fun (rd, tgt) -> Isa.Jal (rd, tgt)) (pair reg (int_range 0 40)));
        ( 1,
          map
            (fun ((rd, r1), imm) -> Isa.Jalr (rd, r1, imm))
            (pair (pair reg reg) (int_range 0 40)) );
        (3, return Isa.Ecall);
      ]
  in
  list_size (int_range 1 30) instr >|= fun body ->
  let base = List.length noise_prologue in
  let at tgt = base + (tgt mod (List.length body + List.length halt_seq - 1)) in
  noise_prologue
  @ List.map
      (function
        | Isa.Branch (op, r1, r2, tgt) -> Isa.Branch (op, r1, r2, at tgt)
        | Isa.Jal (rd, tgt) -> Isa.Jal (rd, at tgt)
        | i -> i)
      body
  @ halt_seq

(* ---- the differential property ---- *)

let allowance = 10_000

let input =
  Array.init (Zkflow_zkvm.Ecall.max_block * allowance) (fun i -> (i * 2654435761) land 0xffff)

(* The two traps no analysis can rule out: a loop may run past any
   allowance, and a program may read more input than it is given. *)
let allowed_traps = [ "cycle limit exceeded"; "read past end of input" ]

let soundness_prop prog =
  if not (clean (analyze prog)) then true (* analyzer rejected: vacuous *)
  else
    let program = Program.of_instrs (Array.of_list prog) in
    match Machine.run program ~max_cycles:allowance ~input with
    | _ -> true
    | exception Machine.Trap { reason; _ } when List.mem reason allowed_traps -> true
    | exception Machine.Trap { cycle; pc; reason } ->
      QCheck.Test.fail_reportf
        "analyzer-clean program trapped at pc %d cycle %d: %s\n%s" pc cycle
        reason (pp_prog prog)

let arb gen = QCheck.make ~print:pp_prog gen

let prop_provable_sound =
  QCheck.Test.make ~name:"analyzer-clean implies no trap, cycle limit and input end aside"
    ~count:500 (arb gen_provable) soundness_prop

let noise_count = 500

let prop_noise_sound =
  QCheck.Test.make ~name:"noise: anything blessed must also run clean"
    ~count:noise_count (arb gen_noise) soundness_prop

(* The properties above are vacuous on rejected programs — make sure
   both generators actually exercise them: half the provable samples,
   and at least 50 of a noise run's, are analyzer-clean. *)
let test_not_vacuous () =
  let st = Random.State.make [| 0xbeef |] in
  let count gen total =
    let n = ref 0 in
    for _ = 1 to total do
      if clean (analyze (QCheck.Gen.generate1 ~rand:st gen)) then incr n
    done;
    !n
  in
  let provable = count gen_provable 200 and noise = count gen_noise noise_count in
  Alcotest.(check bool)
    (Printf.sprintf "enough analyzer-clean provable samples (%d/200)" provable)
    true (provable * 2 >= 200);
  Alcotest.(check bool)
    (Printf.sprintf "enough analyzer-clean noise samples (%d/%d)" noise noise_count)
    true (noise >= 50)

(* The first clean noise sample that trapped: the branch lands on the
   halt's [ecall] past its [li a0, 0], a0 still names debug-print, and
   the run falls off the end. The analyzer took the idiom for a halt
   whatever reached it; it must refuse the program. *)
let test_halt_idiom_reached_by_a_jump () =
  let prog =
    noise_prologue
    @ Isa.[ Branch (BNE, 29, 1, List.length noise_prologue + 3) ]
    @ halt_seq
  in
  Alcotest.(check bool) "not analyzer-clean" false (clean (analyze prog));
  match Machine.run (Program.of_instrs (Array.of_list prog)) ~input:[||] with
  | _ -> Alcotest.fail "the run halted"
  | exception Machine.Trap { reason; _ } ->
    Alcotest.(check string) "the run falls off the end" "pc out of program" reason

(* ---- the trace recorder ----

   A traced run of each program proves and verifies; every recorded
   row passes the verifier's step checks and owns exactly the log
   entries they imply; and the verifier's decoders read the prover's
   rows column, and its time and sorted columns, back to the
   recorder's ints. *)

module Trace = Zkflow_zkvm.Trace
module Column = Zkflow_util.Column
module Zkproof = Zkflow_zkproof

let check_recorded what program (run : Machine.result) =
  let module Checker = Zkproof.Checker in
  let fail fmt = Alcotest.failf ("%s: " ^^ fmt) what in
  (match Zkproof.Prove.prove_result ~params:(Zkproof.Params.make ~queries:8) program run with
   | Error e -> fail "prove: %s" e
   | Ok receipt -> (
     match Zkproof.Verify.verify ~program receipt with
     | Ok () -> ()
     | Error e -> fail "verify: %s" e));
  let rows = run.Machine.rows and log = run.Machine.memlog in
  let n = Trace.n_rows rows and m = Trace.n_entries log in
  let row_at r = match Trace.row rows r with Ok row -> row | Error e -> fail "row %d: %s" r e in
  for r = 0 to n - 1 do
    let row = row_at r in
    (match Checker.check_row ~program row with
     | Error e -> fail "row %d: %s" r e
     | Ok accesses ->
       if List.length accesses <> row.Trace.mem_count then fail "row %d: access count" r;
       List.iteri
         (fun k expected ->
           if
             not
               (Checker.matches expected (Trace.mem_at log (row.Trace.mem_pos + k))
                  ~time:row.Trace.cycle)
           then fail "row %d: access %d" r k)
         accesses);
    if r + 1 < n then
      match Checker.check_pair ~program row ~next:(row_at (r + 1)) with
      | Ok () -> ()
      | Error e -> fail "pair %d: %s" r e
  done;
  (* varints are one-to-one, so the decoded ints re-encode to the
     column's bytes only if they are the recorder's *)
  let col = Trace.encode_rows rows in
  let decoded = Trace.decode_rows (Array.init n (Column.leaf col)) in
  for r = 0 to n - 1 do
    if Trace.row decoded r <> Ok (row_at r) then fail "row %d decodes to another row" r
  done;
  if Trace.encode_rows decoded <> col then fail "the decoded rows re-encode to other bytes";
  (* the time and sorted columns, read back entry by entry as the
     verifier reads opened leaves *)
  let entries = Trace.encode_log log in
  let perm = Result.get_ok (Zkproof.Memcheck.sort_perm log) in
  let read_back what packed expected =
    let ints, refusal =
      Zkproof.Logleaf.unpack_mem ~n:m (Array.init m Fun.id)
        (Array.init (Column.length packed) (Column.leaf packed))
    in
    Array.iteri (fun e msg -> if msg <> "" then fail "%s entry %d: %s" what e msg) refusal;
    for e = 0 to m - 1 do
      if Trace.mem_at ints e <> Trace.mem_at log (expected e) then
        fail "%s entry %d decodes to another entry" what e
    done;
    let same = Trace.log_of_entries (Array.init m (fun e -> Trace.mem_at log (expected e))) in
    if Trace.encode_log ints <> Trace.encode_log same then
      fail "%s column re-encodes to other bytes" what
  in
  read_back "time" (Zkproof.Logleaf.pack entries) Fun.id;
  read_back "sorted" (Zkproof.Logleaf.gather entries perm) (Array.get perm)

(* Provable samples that halt with exit code 0 within the allowance. *)
let provable_runs count =
  let st = Random.State.make [| 0x7ace |] in
  let rec go acc k tries =
    if k = count then List.rev acc
    else if tries > 50 * count then Alcotest.failf "only %d of %d halting samples" k count
    else
      let program = Program.of_instrs (Array.of_list (QCheck.Gen.generate1 ~rand:st gen_provable)) in
      match Machine.run ~trace:true program ~max_cycles:allowance ~input with
      | run when run.Machine.exit_code = 0 -> go ((program, run) :: acc) (k + 1) (tries + 1)
      | _ | (exception Machine.Trap _) -> go acc k (tries + 1)
  in
  go [] 0 0

let test_recorder_provable () =
  List.iteri
    (fun i (program, run) -> check_recorded (Printf.sprintf "sample %d" i) program run)
    (provable_runs 100)

let test_recorder_guests () =
  let module Core = Zkflow_core in
  let rng = Zkflow_util.Rng.create 21L in
  let batches =
    List.init 3 (fun router_id ->
        let records =
          Zkflow_netflow.Gen.records rng Zkflow_netflow.Gen.default_profile ~router_id ~count:5
        in
        (Zkflow_netflow.Export.batch_hash records, records))
  in
  let clog = Core.Clog.apply_batch Core.Clog.empty (Array.concat (List.map snd batches)) in
  let ok = function Ok run -> run | Error e -> Alcotest.fail e in
  check_recorded "aggregation" (Lazy.force Core.Guests.aggregation_program)
    (ok (Core.Aggregate.execute ~prev:Core.Clog.empty batches));
  check_recorded "query" (Lazy.force Core.Guests.query_program)
    (ok (Core.Query.execute ~clog Core.Query.flow_count))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "zkflow_soundness"
    [
      ( "differential",
        [
          q prop_provable_sound;
          q prop_noise_sound;
          Alcotest.test_case "fuzzer is not vacuous" `Quick test_not_vacuous;
          Alcotest.test_case "halt idiom reached by a jump" `Quick
            test_halt_idiom_reached_by_a_jump;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "100 provable programs" `Quick test_recorder_provable;
          Alcotest.test_case "built-in guests" `Quick test_recorder_guests;
        ] );
    ]
