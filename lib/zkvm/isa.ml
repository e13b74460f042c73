type reg = int
type alu =
  | ADD | SUB | MUL | AND | OR | XOR | SLL | SRL | SRA | SLT | SLTU
  | DIVU | REMU
type branch = BEQ | BNE | BLT | BGE | BLTU | BGEU

type t =
  | Alu of alu * reg * reg * reg
  | Alui of alu * reg * reg * int
  | Lui of reg * int
  | Lw of reg * reg * int
  | Sw of reg * reg * int
  | Branch of branch * reg * reg * int
  | Jal of reg * int
  | Jalr of reg * reg * int
  | Ecall

let mask32 = 0xffffffff
let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let alu_eval op a b =
  match op with
  | ADD -> (a + b) land mask32
  | SUB -> (a - b) land mask32
  | MUL -> Int64.to_int (Int64.logand (Int64.mul (Int64.of_int a) (Int64.of_int b)) 0xFFFFFFFFL)
  | AND -> a land b
  | OR -> a lor b
  | XOR -> a lxor b
  | SLL -> (a lsl (b land 31)) land mask32
  | SRL -> a lsr (b land 31)
  | SRA -> (signed a asr (b land 31)) land mask32
  | SLT -> if signed a < signed b then 1 else 0
  | SLTU -> if a < b then 1 else 0
  | DIVU -> if b = 0 then mask32 else a / b
  | REMU -> if b = 0 then a else a mod b

let branch_eval op a b =
  match op with
  | BEQ -> a = b
  | BNE -> a <> b
  | BLT -> signed a < signed b
  | BGE -> signed a >= signed b
  | BLTU -> a < b
  | BGEU -> a >= b

let registers_used = function
  | Alu (_, rd, rs1, rs2) -> (Some rs1, Some rs2, Some rd)
  | Alui (_, rd, rs1, _) -> (Some rs1, None, Some rd)
  | Lui (rd, _) -> (None, None, Some rd)
  | Lw (rd, rs1, _) -> (Some rs1, None, Some rd)
  | Sw (rs2, rs1, _) -> (Some rs1, Some rs2, None)
  | Branch (_, rs1, rs2, _) -> (Some rs1, Some rs2, None)
  | Jal (rd, _) -> (None, None, Some rd)
  | Jalr (rd, rs1, _) -> (Some rs1, None, Some rd)
  | Ecall -> (None, None, None)

let alu_code = function
  | ADD -> 0 | SUB -> 1 | MUL -> 2 | AND -> 3 | OR -> 4 | XOR -> 5
  | SLL -> 6 | SRL -> 7 | SRA -> 8 | SLT -> 9 | SLTU -> 10
  | DIVU -> 11 | REMU -> 12

let branch_code = function
  | BEQ -> 0 | BNE -> 1 | BLT -> 2 | BGE -> 3 | BLTU -> 4 | BGEU -> 5

(* opcode byte, three register/selector bytes, 8-byte immediate: fixed
   12... actually 1 + 3 + 8 = 12 bytes. *)
let encode instr =
  let b = Bytes.make 12 '\000' in
  let set ~op ~f1 ~f2 ~f3 ~imm =
    Bytes.set b 0 (Char.chr op);
    Bytes.set b 1 (Char.chr (f1 land 0xff));
    Bytes.set b 2 (Char.chr (f2 land 0xff));
    Bytes.set b 3 (Char.chr (f3 land 0xff));
    Bytes.set_int64_be b 4 (Int64.of_int imm)
  in
  (match instr with
   (* rs2 rides in the (otherwise unused) immediate field: packing two
      5-bit register numbers into one byte truncated rs1 ≥ 8, colliding
      distinct instructions onto one encoding (and one image ID). *)
   | Alu (op, rd, rs1, rs2) -> set ~op:1 ~f1:(alu_code op) ~f2:rd ~f3:rs1 ~imm:rs2
   | Alui (op, rd, rs1, imm) -> set ~op:2 ~f1:(alu_code op) ~f2:rd ~f3:rs1 ~imm
   | Lui (rd, imm) -> set ~op:3 ~f1:rd ~f2:0 ~f3:0 ~imm
   | Lw (rd, rs1, imm) -> set ~op:4 ~f1:rd ~f2:rs1 ~f3:0 ~imm
   | Sw (rs2, rs1, imm) -> set ~op:5 ~f1:rs2 ~f2:rs1 ~f3:0 ~imm
   | Branch (op, rs1, rs2, tgt) -> set ~op:6 ~f1:(branch_code op) ~f2:rs1 ~f3:rs2 ~imm:tgt
   | Jal (rd, tgt) -> set ~op:7 ~f1:rd ~f2:0 ~f3:0 ~imm:tgt
   | Jalr (rd, rs1, imm) -> set ~op:8 ~f1:rd ~f2:rs1 ~f3:0 ~imm
   | Ecall -> set ~op:9 ~f1:0 ~f2:0 ~f3:0 ~imm:0);
  b

let alu_of_code = function
  | 0 -> Some ADD | 1 -> Some SUB | 2 -> Some MUL | 3 -> Some AND
  | 4 -> Some OR | 5 -> Some XOR | 6 -> Some SLL | 7 -> Some SRL
  | 8 -> Some SRA | 9 -> Some SLT | 10 -> Some SLTU | 11 -> Some DIVU
  | 12 -> Some REMU | _ -> None

let branch_of_code = function
  | 0 -> Some BEQ | 1 -> Some BNE | 2 -> Some BLT | 3 -> Some BGE
  | 4 -> Some BLTU | 5 -> Some BGEU | _ -> None

(* Strict inverse of [encode]: unused field bytes must be zero and
   register fields in range, so every 12-byte string decodes to at most
   one instruction. *)
let decode b =
  if Bytes.length b <> 12 then
    Error (Printf.sprintf "bad instruction length %d (want 12)" (Bytes.length b))
  else begin
    let op = Char.code (Bytes.get b 0) in
    let f1 = Char.code (Bytes.get b 1) in
    let f2 = Char.code (Bytes.get b 2) in
    let f3 = Char.code (Bytes.get b 3) in
    let imm = Int64.to_int (Bytes.get_int64_be b 4) in
    let ( let* ) = Result.bind in
    let reg what r =
      if r >= 0 && r <= 31 then Ok r
      else Error (Printf.sprintf "%s register %d out of range 0..31" what r)
    in
    let zero what v =
      if v = 0 then Ok () else Error (Printf.sprintf "nonzero %s field %d" what v)
    in
    let alu what c =
      match alu_of_code c with
      | Some a -> Ok a
      | None -> Error (Printf.sprintf "bad %s code %d" what c)
    in
    match op with
    | 1 ->
      let* o = alu "alu" f1 in
      let* rd = reg "rd" f2 in
      let* rs1 = reg "rs1" f3 in
      let* rs2 = reg "rs2" imm in
      Ok (Alu (o, rd, rs1, rs2))
    | 2 ->
      let* o = alu "alui" f1 in
      let* rd = reg "rd" f2 in
      let* rs1 = reg "rs1" f3 in
      Ok (Alui (o, rd, rs1, imm))
    | 3 ->
      let* rd = reg "rd" f1 in
      let* () = zero "f2" f2 in
      let* () = zero "f3" f3 in
      Ok (Lui (rd, imm))
    | 4 ->
      let* rd = reg "rd" f1 in
      let* rs1 = reg "rs1" f2 in
      let* () = zero "f3" f3 in
      Ok (Lw (rd, rs1, imm))
    | 5 ->
      let* rs2 = reg "rs2" f1 in
      let* rs1 = reg "rs1" f2 in
      let* () = zero "f3" f3 in
      Ok (Sw (rs2, rs1, imm))
    | 6 ->
      let* o =
        match branch_of_code f1 with
        | Some o -> Ok o
        | None -> Error (Printf.sprintf "bad branch code %d" f1)
      in
      let* rs1 = reg "rs1" f2 in
      let* rs2 = reg "rs2" f3 in
      Ok (Branch (o, rs1, rs2, imm))
    | 7 ->
      let* rd = reg "rd" f1 in
      let* () = zero "f2" f2 in
      let* () = zero "f3" f3 in
      Ok (Jal (rd, imm))
    | 8 ->
      let* rd = reg "rd" f1 in
      let* rs1 = reg "rs1" f2 in
      let* () = zero "f3" f3 in
      Ok (Jalr (rd, rs1, imm))
    | 9 ->
      let* () = zero "f1" f1 in
      let* () = zero "f2" f2 in
      let* () = zero "f3" f3 in
      let* () = zero "imm" imm in
      Ok Ecall
    | op -> Error (Printf.sprintf "bad opcode %d" op)
  end

let reg_name r =
  match r with
  | 0 -> "zero" | 1 -> "ra" | 2 -> "sp" | 3 -> "gp" | 4 -> "tp"
  | 5 -> "t0" | 6 -> "t1" | 7 -> "t2"
  | 8 -> "s0" | 9 -> "s1"
  | r when r >= 10 && r <= 17 -> Printf.sprintf "a%d" (r - 10)
  | r when r >= 18 && r <= 27 -> Printf.sprintf "s%d" (r - 16)
  | r when r >= 28 && r <= 31 -> Printf.sprintf "t%d" (r - 25)
  | r -> Printf.sprintf "x%d" r

let alu_name = function
  | ADD -> "add" | SUB -> "sub" | MUL -> "mul" | AND -> "and" | OR -> "or"
  | XOR -> "xor" | SLL -> "sll" | SRL -> "srl" | SRA -> "sra"
  | SLT -> "slt" | SLTU -> "sltu" | DIVU -> "divu" | REMU -> "remu"

let branch_name = function
  | BEQ -> "beq" | BNE -> "bne" | BLT -> "blt" | BGE -> "bge"
  | BLTU -> "bltu" | BGEU -> "bgeu"

let pp ppf = function
  | Alu (op, rd, rs1, rs2) ->
    Format.fprintf ppf "%s %s, %s, %s" (alu_name op) (reg_name rd)
      (reg_name rs1) (reg_name rs2)
  | Alui (op, rd, rs1, imm) ->
    Format.fprintf ppf "%si %s, %s, %d" (alu_name op) (reg_name rd)
      (reg_name rs1) imm
  | Lui (rd, imm) -> Format.fprintf ppf "lui %s, %d" (reg_name rd) imm
  | Lw (rd, rs1, imm) ->
    Format.fprintf ppf "lw %s, %d(%s)" (reg_name rd) imm (reg_name rs1)
  | Sw (rs2, rs1, imm) ->
    Format.fprintf ppf "sw %s, %d(%s)" (reg_name rs2) imm (reg_name rs1)
  | Branch (op, rs1, rs2, tgt) ->
    Format.fprintf ppf "%s %s, %s, @%d" (branch_name op) (reg_name rs1)
      (reg_name rs2) tgt
  | Jal (rd, tgt) -> Format.fprintf ppf "jal %s, @%d" (reg_name rd) tgt
  | Jalr (rd, rs1, imm) ->
    Format.fprintf ppf "jalr %s, %d(%s)" (reg_name rd) imm (reg_name rs1)
  | Ecall -> Format.fprintf ppf "ecall"
