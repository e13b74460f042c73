module Isa = Zkflow_zkvm.Isa
module Trace = Zkflow_zkvm.Trace
module Ecall = Zkflow_zkvm.Ecall

(* ---- abstract register state ----

   Per register: a may-be-uninitialized flag (forward may-analysis,
   seeded from the ABI entry state: only x0 is defined on entry) and an
   {!Interval} value (interval + power-of-two congruence) used for
   address arithmetic and ecall-number resolution.
   Singleton intervals reproduce the old constant lattice bit-for-bit
   ({!Interval.alu} delegates to the concrete semantics on singletons),
   so everything the flat analyzer proved is still proven. *)

type value = { may_uninit : bool; v : Interval.t }
type state = value array

let v_init_top = { may_uninit = false; v = Interval.top }
let v_uninit = { may_uninit = true; v = Interval.top }
let v_itv v = { may_uninit = false; v }
let v_cst c = v_itv (Interval.const c)

let join_value a b =
  { may_uninit = a.may_uninit || b.may_uninit; v = Interval.join a.v b.v }

let join_state a b = Array.init 32 (fun i -> join_value a.(i) b.(i))

let widen_state (old : state) (nw : state) =
  Array.init 32 (fun i ->
      { may_uninit = nw.(i).may_uninit; v = Interval.widen old.(i).v nw.(i).v })

let equal_state (a : state) b = Array.for_all2 (fun x y -> x = y) a b

let entry_state () =
  let st = Array.make 32 v_uninit in
  st.(0) <- v_cst 0;
  st

(* Helper functions are entered with every register defined but
   unknown: callers are checked to pass initialised arguments at the
   call site, and assuming less would re-flag every callee body. *)
let helper_entry_state () =
  let st = Array.make 32 v_init_top in
  st.(0) <- v_cst 0;
  st

let reg_itv (st : state) r = st.(r).v

(* [emit] is a no-op during the fixpoint and collects findings in the
   final reporting walk, so each defect is reported exactly once;
   [note] likewise collects unproven-safety facts: [`Mem] = a memory
   access that may leave RAM, [`Ecall] = an unresolved call number,
   [`Jalr] = an indirect jump (the control model assumes, not proves,
   that return addresses are intact). *)
let step ~emit ~note ~pc instr (st : state) =
  let st = Array.copy st in
  let read ?(what = "") r =
    if r <> 0 && st.(r).may_uninit then
      emit
        (Finding.error ~loc:(Finding.Pc pc) ~pass:"uninit"
           "read of possibly-uninitialized register %s%s" (Isa.reg_name r) what)
  in
  let write r v = if r <> 0 then st.(r) <- v in
  let itv r = st.(r).v in
  let addr_of base imm = Interval.alu Isa.ADD (itv base) (Interval.const imm) in
  let oob ~op (a : Interval.t) =
    match Interval.is_const a with
    | Some addr ->
      emit
        (Finding.error ~loc:(Finding.Pc pc) ~pass:"membounds"
           "%s to word address 0x%x is outside guest RAM (limit 0x%x)" op addr
           Trace.ram_limit)
    | None ->
      emit
        (Finding.error ~loc:(Finding.Pc pc) ~pass:"membounds"
           "%s to word address in [0x%x, 0x%x] is always outside guest RAM (limit 0x%x)"
           op a.Interval.lo a.Interval.hi Trace.ram_limit)
  in
  let check_mem ~op base imm =
    let a = addr_of base imm in
    if a.Interval.lo >= Trace.ram_limit then oob ~op a
    else if a.Interval.hi >= Trace.ram_limit then note `Mem
  in
  (match instr with
   | Isa.Alu (op, rd, rs1, rs2) ->
     read rs1;
     read rs2;
     write rd (v_itv (Interval.alu op (itv rs1) (itv rs2)))
   | Isa.Alui (op, rd, rs1, imm) ->
     read rs1;
     write rd (v_itv (Interval.alu op (itv rs1) (Interval.const imm)))
   | Isa.Lui (rd, imm) -> write rd (v_cst imm)
   | Isa.Lw (rd, rs1, imm) ->
     read ~what:" (load base)" rs1;
     check_mem ~op:"load" rs1 imm;
     (* guest RAM is zero-initialised, so a loaded word is defined *)
     write rd v_init_top
   | Isa.Sw (rs2, rs1, imm) ->
     read ~what:" (store base)" rs1;
     read ~what:" (store value)" rs2;
     check_mem ~op:"store" rs1 imm
   | Isa.Branch (_, rs1, rs2, _) ->
     read rs1;
     read rs2
   | Isa.Jal (0, _) -> ()
   | Isa.Jal (_, _) ->
     (* a call: the callee may leave anything in any register, but
        everything is defined on return (conservative summary) *)
     for r = 1 to 31 do
       st.(r) <- v_init_top
     done
   | Isa.Jalr (rd, rs1, _) ->
     read ~what:(if rd = 0 then " (return address)" else " (indirect call target)") rs1;
     note `Jalr;
     if rd <> 0 then
       for r = 1 to 31 do
         st.(r) <- v_init_top
       done
   | Isa.Ecall ->
     read ~what:" (ecall number a0)" 10;
     (match Interval.is_const (itv 10) with
      | Some n -> (
        match Ecall.of_number n with
        | None ->
          emit
            (Finding.error ~loc:(Finding.Pc pc) ~pass:"ecall"
               "unknown ecall number %d (the machine traps here)" n)
        | Some Ecall.Halt -> read ~what:" (halt exit code)" 11
        | Some (Ecall.Read_word | Ecall.Input_avail) -> write 10 v_init_top
        | Some (Ecall.Commit | Ecall.Debug) -> read ~what:" (ecall argument)" 11
        | Some Ecall.Sha ->
          read ~what:" (sha src)" 11;
          read ~what:" (sha length)" 12;
          read ~what:" (sha dst)" 13;
          let src = itv 11 and len = itv 12 and dst = itv 13 in
          let cap = 1 lsl 24 in
          if len.Interval.lo > cap then
            emit
              (Finding.error ~loc:(Finding.Pc pc) ~pass:"membounds"
                 "sha length is at least %d words, above the 2^24-word cap (the machine traps)"
                 len.Interval.lo)
          else if len.Interval.hi > cap then note `Mem;
          if src.Interval.lo + min len.Interval.lo cap > Trace.ram_limit then
            oob ~op:"sha source" src
          else if src.Interval.hi + min len.Interval.hi cap > Trace.ram_limit then
            note `Mem;
          if dst.Interval.lo + 8 > Trace.ram_limit then oob ~op:"sha destination" dst
          else if dst.Interval.hi + 8 > Trace.ram_limit then note `Mem
        | Some ((Ecall.Read_block | Ecall.Commit_block) as c) ->
          let op, what =
            if Ecall.writes_journal c then ("block commit", "source")
            else ("block read", "destination")
          in
          read ~what:(Printf.sprintf " (%s %s)" op what) 11;
          read ~what:(Printf.sprintf " (%s count)" op) 12;
          let base = itv 11 and count = itv 12 in
          let max = Ecall.max_block in
          if count.Interval.hi < 1 || count.Interval.lo > max then
            emit
              (Finding.error ~loc:(Finding.Pc pc) ~pass:"membounds"
                 "%s count in [%d, %d] is always outside 1..%d (the machine traps)" op
                 count.Interval.lo count.Interval.hi max)
          else if count.Interval.lo < 1 || count.Interval.hi > max then note `Mem;
          (* The words run from the base to base + count - 1. *)
          if base.Interval.lo + Int.max 1 count.Interval.lo > Trace.ram_limit then
            oob ~op:(op ^ " " ^ what) base
          else if base.Interval.hi + Int.min max count.Interval.hi > Trace.ram_limit then
            note `Mem)
      | None ->
        let n = itv 10 in
        if n.Interval.lo > Ecall.max_number then
          emit
            (Finding.error ~loc:(Finding.Pc pc) ~pass:"ecall"
               "ecall number in a0 is at least %d — always invalid (the machine traps here)"
               n.Interval.lo)
        else begin
          emit
            (Finding.warning ~loc:(Finding.Pc pc) ~pass:"ecall"
               "ecall number in a0 is not statically known; protocol not checked");
          note `Ecall
        end;
        write 10 v_init_top));
  st

let transfer ~emit ~pc instr st = step ~emit ~note:(fun _ -> ()) ~pc instr st

(* Branch-edge refinement for the solver: intersect both operands with
   the taken / fall-through condition; an empty intersection marks the
   edge infeasible. *)
let refine ~pc:_ instr ~taken (st : state) =
  match instr with
  | Isa.Branch (op, rs1, rs2, _) -> (
    match Interval.refine_branch op ~taken st.(rs1).v st.(rs2).v with
    | None -> None
    | Some (a, b) ->
      let st = Array.copy st in
      if rs1 <> 0 then st.(rs1) <- { st.(rs1) with v = a };
      if rs2 <> 0 && rs2 <> rs1 then st.(rs2) <- { st.(rs2) with v = b };
      Some st)
  | _ -> Some st

let solve cfg =
  Dataflow.solve cfg ~refine ~widen:widen_state
    ~entry:(fun pc -> if pc = 0 then entry_state () else helper_entry_state ())
    ~join:join_state ~equal:equal_state
    ~transfer:(transfer ~emit:(fun _ -> ()))

(* ---- well-formedness: register fields must name real registers ----

   A malformed index would make the interpreter (and this analysis)
   fault on array access, so this runs first and short-circuits. *)
let wellformed instrs =
  let findings = ref [] in
  Array.iteri
    (fun pc instr ->
      let r1, r2, rd = Isa.registers_used instr in
      List.iter
        (function
          | Some r when r < 0 || r > 31 ->
            findings :=
              Finding.error ~loc:(Finding.Pc pc) ~pass:"wellformed"
                "register index %d out of range 0..31" r
              :: !findings
          | _ -> ())
        [ r1; r2; rd ])
    instrs;
  List.rev !findings

(* ---- graph passes ---- *)

let escape_findings (cfg : Cfg.t) =
  let n = Array.length cfg.Cfg.program in
  List.filter_map
    (fun (pc, tgt) ->
      if not (Cfg.reachable_pc cfg pc) then None
      else if tgt = pc + 1 then
        (* a fall-through (or call-return) edge past the end *)
        Some
          (Finding.error ~loc:(Finding.Pc pc) ~pass:"control"
             "execution can fall off the end of the program (no terminating ecall on this path)")
      else
        Some
          (Finding.error ~loc:(Finding.Pc pc) ~pass:"control"
             "control transfer to pc %d, outside the program [0, %d)" tgt n))
    cfg.Cfg.escapes

let unreachable_findings (cfg : Cfg.t) =
  (* Collapse runs of adjacent unreachable blocks into one finding so a
     dead helper function reports once, not once per block. *)
  let blocks = cfg.Cfg.blocks in
  let findings = ref [] in
  let i = ref 0 in
  let nb = Array.length blocks in
  while !i < nb do
    if cfg.Cfg.reachable.(!i) then incr i
    else begin
      let first = blocks.(!i).Cfg.first in
      let j = ref !i in
      while !j + 1 < nb && not cfg.Cfg.reachable.(!j + 1) do
        incr j
      done;
      let last = blocks.(!j).Cfg.last in
      findings :=
        Finding.warning ~loc:(Finding.Pc first) ~pass:"unreachable"
          "unreachable code: pc %d..%d (%d instruction(s)) can never execute" first
          last (last - first + 1)
        :: !findings;
      i := !j + 1
    end
  done;
  List.rev !findings

let analyze ?(subject = "program") instrs =
  let n = Array.length instrs in
  match wellformed instrs with
  | _ :: _ as bad ->
    {
      Finding.subject;
      instrs = n;
      blocks = 0;
      findings = Finding.normalize bad;
      proven_safe = false;
    }
  | [] ->
    let cfg = Cfg.build instrs in
    let block_in = solve cfg in
    let findings = ref [] in
    let emit f = findings := f :: !findings in
    let unproven_mem = ref false
    and unproven_ecall = ref false
    and has_jalr = ref false in
    let note = function
      | `Mem -> unproven_mem := true
      | `Ecall -> unproven_ecall := true
      | `Jalr -> has_jalr := true
    in
    (* reporting walk: each reachable block once, from its fixed entry
       state *)
    Array.iteri
      (fun id b ->
        match block_in.(id) with
        | None -> ()
        | Some st ->
          let st = ref st in
          for pc = b.Cfg.first to b.Cfg.last do
            st := step ~emit ~note ~pc cfg.Cfg.program.(pc) !st
          done)
      cfg.Cfg.blocks;
    let findings =
      Finding.normalize
        (escape_findings cfg @ unreachable_findings cfg @ List.rev !findings)
    in
    let proven_safe =
      (not !unproven_mem) && (not !unproven_ecall) && (not !has_jalr)
      && cfg.Cfg.escapes = []
      && not (List.exists (fun f -> f.Finding.severity = Finding.Error) findings)
    in
    {
      Finding.subject;
      instrs = n;
      blocks = Array.length cfg.Cfg.blocks;
      findings;
      proven_safe;
    }
