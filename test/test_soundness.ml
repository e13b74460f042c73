(* Differential analyzer-vs-VM soundness fuzzer.

   The analyzer's contract (Finding.report): when a report has no
   Error findings, [proven_safe] set, and a [Bounded n] cycle bound,
   the only traps the machine may raise are input exhaustion and the
   cycle limit — and [n] dominates the cycle count of every execution.
   So, given [8n] input words (one cycle reads at most eight) and a
   cycle allowance above [n], [Machine.run] must terminate without
   trapping, in at most [n] cycles.

   Programs come from two generators, run through the same property:

   - [gen_provable]: register inits, constant-address loads/stores,
     host calls following the ecall protocol (block reads and commits
     of 0–9 words among them), and counted countdown
     loops — the shapes the interval domain is supposed to prove.
     Most samples are analyzer-clean, so the property bites.
   - [gen_noise]: unconstrained instruction soup. Almost all samples
     are rejected by the analyzer (making the property vacuous), but
     any sample the analyzer wrongly blesses would be exactly the
     soundness bug this harness exists to catch.

   A final sanity check asserts the provable generator actually
   produces a healthy fraction of analyzer-clean programs, so the
   property tests cannot silently go vacuous. *)

module Isa = Zkflow_zkvm.Isa
module Machine = Zkflow_zkvm.Machine
module Program = Zkflow_zkvm.Program
module Finding = Zkflow_analysis.Finding

let analyze prog = Zkflow_analysis.Zr0_checks.analyze (Array.of_list prog)

(* Analyzer-clean: nothing to report, every access proven, bound found. *)
let clean_bound (r : Finding.report) =
  match (Finding.errors r, r.Finding.proven_safe, r.Finding.cycle_bound) with
  | [], true, Finding.Bounded n -> Some n
  | _ -> None

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

(* Unconstrained soup (targets small so branches usually land in the
   program); the analyzer should reject nearly all of it. *)
let gen_noise : Isa.t list QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_range 0 31 in
  let instr =
    oneof
      [
        map
          (fun (op, (rd, (r1, r2))) -> Isa.Alu (op, rd, r1, r2))
          (pair g_alu (pair reg (pair reg reg)));
        map
          (fun (op, (rd, (r1, imm))) -> Isa.Alui (op, rd, r1, imm))
          (pair g_alu (pair reg (pair reg (int_range (-0x8000) 0xffff))));
        map (fun (rd, imm) -> Isa.Lui (rd, imm)) (pair reg (int_range 0 0xffff));
        map
          (fun ((rd, r1), imm) -> Isa.Lw (rd, r1, imm))
          (pair (pair reg reg) (int_range 0 0xffff));
        map
          (fun ((rs2, r1), imm) -> Isa.Sw (rs2, r1, imm))
          (pair (pair reg reg) (int_range 0 0xffff));
        map
          (fun ((op, r1), (r2, tgt)) -> Isa.Branch (op, r1, r2, tgt))
          (pair
             (pair (oneofl Isa.[ BEQ; BNE; BLT; BGE; BLTU; BGEU ]) reg)
             (pair reg (int_range 0 40)));
        map (fun (rd, tgt) -> Isa.Jal (rd, tgt)) (pair reg (int_range 0 40));
        map
          (fun ((rd, r1), imm) -> Isa.Jalr (rd, r1, imm))
          (pair (pair reg reg) (int_range 0 40));
        return Isa.Ecall;
      ]
  in
  list_size (int_range 1 30) instr >|= fun body -> body @ halt_seq

(* ---- the differential property ---- *)

let max_checked_bound = 1_000_000

let soundness_prop prog =
  match clean_bound (analyze prog) with
  | None -> true (* analyzer rejected (or could not bound): vacuous *)
  | Some bound when bound > max_checked_bound -> true
  | Some bound -> (
    (* One cycle reads at most eight words (a block read), so
       [8 · bound] words can never run dry. *)
    let input =
      Array.init (Zkflow_zkvm.Ecall.max_block * bound) (fun i -> (i * 2654435761) land 0xffff)
    in
    let program = Program.of_instrs (Array.of_list prog) in
    match Machine.run program ~max_cycles:(bound + 1) ~input with
    | r ->
      if r.Machine.cycles > bound then
        QCheck.Test.fail_reportf
          "bound unsound: proved %d cycles, machine ran %d\n%s" bound
          r.Machine.cycles (pp_prog prog)
      else true
    | exception Machine.Trap { cycle; pc; reason } ->
      QCheck.Test.fail_reportf
        "analyzer-clean program trapped at pc %d cycle %d: %s\n%s" pc cycle
        reason (pp_prog prog))

let arb gen = QCheck.make ~print:pp_prog gen

let prop_provable_sound =
  QCheck.Test.make ~name:"analyzer-clean implies no trap, cycles <= bound"
    ~count:500 (arb gen_provable) soundness_prop

let prop_noise_sound =
  QCheck.Test.make ~name:"noise: anything blessed must also run clean"
    ~count:300 (arb gen_noise) soundness_prop

(* The property above is vacuous on rejected programs — make sure the
   provable generator actually exercises it. *)
let test_not_vacuous () =
  let st = Random.State.make [| 0xbeef |] in
  let total = 200 in
  let clean = ref 0 in
  for _ = 1 to total do
    let prog = QCheck.Gen.generate1 ~rand:st gen_provable in
    match clean_bound (analyze prog) with
    | Some _ -> incr clean
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "enough analyzer-clean samples (%d/%d)" !clean total)
    true
    (!clean * 2 >= total)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "zkflow_soundness"
    [
      ( "differential",
        [
          q prop_provable_sound;
          q prop_noise_sound;
          Alcotest.test_case "fuzzer is not vacuous" `Quick test_not_vacuous;
        ] );
    ]
