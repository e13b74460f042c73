type pre =
  | I of Isa.t                                  (* fully resolved *)
  | Branch_l of Isa.branch * Isa.reg * Isa.reg * string
  | Jal_l of Isa.reg * string

type elem = Label of string | Instr of pre
type item = elem list

(* Registers *)
let zero = 0
let ra = 1
let sp = 2
let gp = 3
let tp = 4
let t0 = 5
let t1 = 6
let t2 = 7
let s0 = 8
let s1 = 9
let a0 = 10
let a1 = 11
let a2 = 12
let a3 = 13
let a4 = 14
let a5 = 15
let a6 = 16
let a7 = 17
let s2 = 18
let s3 = 19
let s4 = 20
let s5 = 21
let s6 = 22
let s7 = 23
let s8 = 24
let s9 = 25
let s10 = 26
let s11 = 27
let t3 = 28
let t4 = 29
let t5 = 30
let t6 = 31

let label s = [ Label s ]
let comment _ = []
let block items = List.concat items
let i1 x = [ Instr (I x) ]

(* ALU *)
let add rd rs1 rs2 = i1 (Isa.Alu (ADD, rd, rs1, rs2))
let sub rd rs1 rs2 = i1 (Isa.Alu (SUB, rd, rs1, rs2))
let mul rd rs1 rs2 = i1 (Isa.Alu (MUL, rd, rs1, rs2))
let and_ rd rs1 rs2 = i1 (Isa.Alu (AND, rd, rs1, rs2))
let or_ rd rs1 rs2 = i1 (Isa.Alu (OR, rd, rs1, rs2))
let xor rd rs1 rs2 = i1 (Isa.Alu (XOR, rd, rs1, rs2))
let sll rd rs1 rs2 = i1 (Isa.Alu (SLL, rd, rs1, rs2))
let srl rd rs1 rs2 = i1 (Isa.Alu (SRL, rd, rs1, rs2))
let sra rd rs1 rs2 = i1 (Isa.Alu (SRA, rd, rs1, rs2))
let slt rd rs1 rs2 = i1 (Isa.Alu (SLT, rd, rs1, rs2))
let sltu rd rs1 rs2 = i1 (Isa.Alu (SLTU, rd, rs1, rs2))
let divu rd rs1 rs2 = i1 (Isa.Alu (DIVU, rd, rs1, rs2))
let remu rd rs1 rs2 = i1 (Isa.Alu (REMU, rd, rs1, rs2))

(* Immediate ALU *)
let addi rd rs1 imm = i1 (Isa.Alui (ADD, rd, rs1, imm))
let andi rd rs1 imm = i1 (Isa.Alui (AND, rd, rs1, imm))
let ori rd rs1 imm = i1 (Isa.Alui (OR, rd, rs1, imm))
let xori rd rs1 imm = i1 (Isa.Alui (XOR, rd, rs1, imm))
let slli rd rs1 imm = i1 (Isa.Alui (SLL, rd, rs1, imm))
let srli rd rs1 imm = i1 (Isa.Alui (SRL, rd, rs1, imm))
let muli rd rs1 imm = i1 (Isa.Alui (MUL, rd, rs1, imm))
let slti rd rs1 imm = i1 (Isa.Alui (SLT, rd, rs1, imm))
let sltiu rd rs1 imm = i1 (Isa.Alui (SLTU, rd, rs1, imm))
let divui rd rs1 imm = i1 (Isa.Alui (DIVU, rd, rs1, imm))
let remui rd rs1 imm = i1 (Isa.Alui (REMU, rd, rs1, imm))

(* Memory *)
let lw rd base off = i1 (Isa.Lw (rd, base, off))
let sw rs2 base off = i1 (Isa.Sw (rs2, base, off))

(* Control flow *)
let beq rs1 rs2 l = [ Instr (Branch_l (BEQ, rs1, rs2, l)) ]
let bne rs1 rs2 l = [ Instr (Branch_l (BNE, rs1, rs2, l)) ]
let blt rs1 rs2 l = [ Instr (Branch_l (BLT, rs1, rs2, l)) ]
let bge rs1 rs2 l = [ Instr (Branch_l (BGE, rs1, rs2, l)) ]
let bltu rs1 rs2 l = [ Instr (Branch_l (BLTU, rs1, rs2, l)) ]
let bgeu rs1 rs2 l = [ Instr (Branch_l (BGEU, rs1, rs2, l)) ]
let jal rd l = [ Instr (Jal_l (rd, l)) ]
let jalr rd rs1 imm = i1 (Isa.Jalr (rd, rs1, imm))

(* Pseudo *)
let li rd imm = i1 (Isa.Lui (rd, imm))
let mv rd rs = addi rd rs 0
let nop = addi zero zero 0
let j l = jal zero l
let call l = jal ra l
let ret = jalr zero ra 0

(* Host calls *)
let ecall = i1 Isa.Ecall
let halt code = block [ li a1 code; li a0 0; i1 Isa.Ecall ]

let read_word rd =
  block [ li a0 1; i1 Isa.Ecall; (if rd = a0 then [] else mv rd a0) ]

let commit rs = block [ (if rs = a1 then [] else mv a1 rs); li a0 2; i1 Isa.Ecall ]

let sha ~src ~words ~dst =
  block
    [
      (if src = a1 then [] else mv a1 src);
      (if words = a2 then [] else mv a2 words);
      (if dst = a3 then [] else mv a3 dst);
      li a0 3;
      i1 Isa.Ecall;
    ]

let block_call n ~base ~count =
  block
    [
      (if base = a1 then [] else mv a1 base);
      (if count = a2 then [] else mv a2 count);
      li a0 n;
      i1 Isa.Ecall;
    ]

let read_block ~dst ~count = block_call 6 ~base:dst ~count
let commit_block ~src ~count = block_call 7 ~base:src ~count

let debug rs = block [ (if rs = a1 then [] else mv a1 rs); li a0 4; i1 Isa.Ecall ]

let input_avail rd =
  block [ li a0 5; i1 Isa.Ecall; (if rd = a0 then [] else mv rd a0) ]

let assemble items =
  let elems = List.concat items in
  (* Pass 1: label addresses. *)
  let labels = Hashtbl.create 64 in
  let idx = ref 0 in
  List.iter
    (function
      | Label l ->
        if Hashtbl.mem labels l then
          invalid_arg (Printf.sprintf "Asm.assemble: duplicate label %S" l);
        Hashtbl.replace labels l !idx
      | Instr _ -> incr idx)
    elems;
  let resolve l =
    match Hashtbl.find_opt labels l with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Asm.assemble: undefined label %S" l)
  in
  (* Pass 2: emit. *)
  let instrs =
    List.filter_map
      (function
        | Label _ -> None
        | Instr (I x) -> Some x
        | Instr (Branch_l (op, rs1, rs2, l)) ->
          Some (Isa.Branch (op, rs1, rs2, resolve l))
        | Instr (Jal_l (rd, l)) -> Some (Isa.Jal (rd, resolve l)))
      elems
  in
  Program.of_instrs (Array.of_list instrs)
