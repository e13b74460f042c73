module Isa = Zkflow_zkvm.Isa
module Program = Zkflow_zkvm.Program
module Trace = Zkflow_zkvm.Trace
module Ecall = Zkflow_zkvm.Ecall

type access = { addr : int; write : bool; value : int option }

let mask32 = 0xffffffff
let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* Must mirror Machine.alu_eval exactly; the pair is pinned together by
   the proof-roundtrip tests. *)
let alu_eval op a b =
  match (op : Isa.alu) with
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
  match (op : Isa.branch) with
  | BEQ -> a = b
  | BNE -> a <> b
  | BLT -> signed a < signed b
  | BGE -> signed a >= signed b
  | BLTU -> a < b
  | BGEU -> a >= b

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let require cond fmt =
  if cond then Format.ikfprintf (fun _ -> Ok ()) Format.str_formatter fmt
  else fail fmt

let reg r = Trace.reg_base + r
let read_reg r v = { addr = reg r; write = false; value = Some v }
let write_reg r v = { addr = reg r; write = true; value = Some v }

(* The value a write to [rd] stores: x0 is hard-wired to zero. *)
let mask_rd rd v = if rd = 0 then 0 else v land mask32

let fetch program pc =
  match Program.fetch program pc with
  | Some i -> Ok i
  | None -> fail "pc %d outside program" pc

let check_exec program (row : Trace.row) =
  let* instr = fetch program row.pc in
  let aux_len = Array.length row.aux in
  let plain_next () =
    require (row.next_pc = row.pc + 1) "next_pc: expected %d, row says %d"
      (row.pc + 1) row.next_pc
  in
  match instr with
  | Isa.Alu (op, rd, rs1, rs2) ->
    let expected = mask_rd rd (alu_eval op row.rs1 row.rs2) in
    let* () = require (row.rd = expected) "alu: rd %d <> expected %d" row.rd expected in
    let* () = require (aux_len = 0) "alu: unexpected aux" in
    let* () = plain_next () in
    Ok [ read_reg rs1 row.rs1; read_reg rs2 row.rs2; write_reg rd row.rd ]
  | Isa.Alui (op, rd, rs1, imm) ->
    let expected = mask_rd rd (alu_eval op row.rs1 (imm land mask32)) in
    let* () = require (row.rd = expected) "alui: rd %d <> expected %d" row.rd expected in
    let* () = require (row.rs2 = 0 && aux_len = 0) "alui: shape" in
    let* () = plain_next () in
    Ok [ read_reg rs1 row.rs1; write_reg rd row.rd ]
  | Isa.Lui (rd, imm) ->
    let expected = mask_rd rd imm in
    let* () = require (row.rd = expected) "lui: rd %d <> expected %d" row.rd expected in
    let* () = require (row.rs1 = 0 && row.rs2 = 0 && aux_len = 0) "lui: shape" in
    let* () = plain_next () in
    Ok [ write_reg rd row.rd ]
  | Isa.Lw (rd, rs1, imm) ->
    let addr = (row.rs1 + imm) land mask32 in
    let* () = require (aux_len = 1 && row.aux.(0) = addr) "lw: aux addr" in
    let* () = require (addr < Trace.ram_limit) "lw: address out of range" in
    let* () = require (row.rs2 = 0) "lw: shape" in
    let* () = plain_next () in
    (* When rd = x0 the loaded value is discarded; the RAM read's value
       is then witness-internal (cross-checked by the memory argument
       alone). *)
    let load_value = if rd = 0 then None else Some row.rd in
    Ok
      [
        read_reg rs1 row.rs1;
        { addr; write = false; value = load_value };
        write_reg rd row.rd;
      ]
  | Isa.Sw (rs2, rs1, imm) ->
    let addr = (row.rs1 + imm) land mask32 in
    let* () = require (aux_len = 1 && row.aux.(0) = addr) "sw: aux addr" in
    let* () = require (addr < Trace.ram_limit) "sw: address out of range" in
    let* () = require (row.rd = 0) "sw: shape" in
    let* () = plain_next () in
    Ok
      [
        read_reg rs1 row.rs1;
        read_reg rs2 row.rs2;
        { addr; write = true; value = Some row.rs2 };
      ]
  | Isa.Branch (op, rs1, rs2, tgt) ->
    let expected = if branch_eval op row.rs1 row.rs2 then tgt else row.pc + 1 in
    let* () = require (row.next_pc = expected) "branch: next_pc" in
    let* () = require (row.rd = 0 && aux_len = 0) "branch: shape" in
    Ok [ read_reg rs1 row.rs1; read_reg rs2 row.rs2 ]
  | Isa.Jal (rd, tgt) ->
    let expected = mask_rd rd (row.pc + 1) in
    let* () = require (row.rd = expected) "jal: link value" in
    let* () = require (row.next_pc = tgt) "jal: next_pc" in
    let* () = require (row.rs1 = 0 && row.rs2 = 0 && aux_len = 0) "jal: shape" in
    Ok [ write_reg rd row.rd ]
  | Isa.Jalr (rd, rs1, imm) ->
    let expected = mask_rd rd (row.pc + 1) in
    let* () = require (row.rd = expected) "jalr: link value" in
    let* () =
      require (row.next_pc = (row.rs1 + imm) land mask32) "jalr: next_pc"
    in
    let* () = require (row.rs2 = 0 && aux_len = 0) "jalr: shape" in
    Ok [ read_reg rs1 row.rs1; write_reg rd row.rd ]
  | Isa.Ecall ->
    let call = Ecall.of_number row.rs1 in
    let is_block = match call with Some c -> Ecall.block c | None -> false in
    let* () =
      require (if is_block then aux_len >= 2 else aux_len = 2) "ecall: aux shape"
    in
    let base =
      [
        read_reg 10 row.rs1;
        read_reg 11 row.rs2;
        read_reg 12 row.aux.(0);
        read_reg 13 row.aux.(1);
      ]
    in
    (* A block call's row carries its words after the two register
       values: RAM word a1 + i is aux word 2 + i. *)
    let block c =
      let what, write =
        if Ecall.writes_journal c then ("commit block", false) else ("read block", true)
      in
      let addr = row.rs2 and count = row.aux.(0) in
      let* () =
        require
          (count >= 1 && count <= Ecall.max_block)
          "%s: count %d outside 1..%d" what count Ecall.max_block
      in
      let* () =
        require (addr + count <= Trace.ram_limit) "%s: words %d..%d outside RAM" what addr
          (addr + count - 1)
      in
      let* () = require (aux_len = 2 + count) "%s: aux shape" what in
      let* () = require (row.rd = 0) "%s: shape" what in
      let* () = plain_next () in
      Ok
        (base
        @ List.init count (fun i -> { addr = addr + i; write; value = Some row.aux.(2 + i) }))
    in
    (match call with
     | Some Ecall.Halt ->
       (* halt: self-loop *)
       let* () = require (row.next_pc = row.pc) "halt: next_pc self-loop" in
       let* () = require (row.rd = 0) "halt: shape" in
       Ok base
     | Some Ecall.Read_word ->
       (* read-word: the value is private input; only the register write
          is pinned to it. *)
       let* () = plain_next () in
       Ok (base @ [ write_reg 10 row.rd ])
     | Some Ecall.Commit ->
       let* () = plain_next () in
       let* () = require (row.rd = 0) "commit: shape" in
       Ok base
     | Some Ecall.Sha ->
       (* sha ecall: block rows follow at the same pc. *)
       let* () = require (row.next_pc = row.pc) "sha ecall: next_pc" in
       let* () = require (row.rd = 0) "sha ecall: shape" in
       let total = row.aux.(0) in
       let* () = require (total >= 0 && total <= 1 lsl 24) "sha ecall: length" in
       Ok base
     | Some Ecall.Debug ->
       let* () = plain_next () in
       let* () = require (row.rd = 0) "debug: shape" in
       Ok base
     | Some Ecall.Input_avail ->
       let* () = plain_next () in
       Ok (base @ [ write_reg 10 row.rd ])
     | Some ((Ecall.Read_block | Ecall.Commit_block) as c) -> block c
     | None -> fail "ecall: unknown call number %d" row.rs1)

let check_sha_block program (row : Trace.row) (sb : Trace.sha_block) =
  let { Trace.block_index; total_words; src; dst; block; pre; post } = sb in
  let* instr = fetch program row.pc in
  let* () =
    require (match instr with Isa.Ecall -> true | _ -> false) "sha block: pc is not an ecall"
  in
  let blocks = Trace.sha_block_count total_words in
  let* () =
    require (block_index >= 0 && block_index < blocks) "sha block: index range"
  in
  let* () =
    require (row.rs1 = 0 && row.rs2 = 0 && row.rd = 0 && Array.length row.aux = 0)
      "sha block: shape"
  in
  let* () =
    if block_index = 0 then
      require (pre = Zkflow_hash.Sha256.iv) "sha block: first block must start from IV"
    else Ok ()
  in
  let* () =
    require (post = Zkflow_hash.Sha256.compress_words pre block)
      "sha block: compression mismatch"
  in
  (* Message words are RAM reads; padding words are fixed by (total, w). *)
  let* accesses =
    let rec go j acc =
      if j = 16 then Ok (List.rev acc)
      else
        let w = (16 * block_index) + j in
        match Trace.sha_padded_word ~total:total_words w with
        | None ->
          go (j + 1) ({ addr = src + w; write = false; value = Some block.(j) } :: acc)
        | Some pad ->
          if block.(j) = pad then go (j + 1) acc
          else fail "sha block: bad padding word %d" w
    in
    go 0 []
  in
  let last = block_index = blocks - 1 in
  let* () =
    require (row.next_pc = if last then row.pc + 1 else row.pc) "sha block: next_pc"
  in
  if last then
    Ok
      (accesses
      @ List.init 8 (fun i -> { addr = dst + i; write = true; value = Some post.(i) }))
  else Ok accesses

let check_row ~program (row : Trace.row) =
  match row.kind with
  | Trace.Exec -> check_exec program row
  | Trace.Sha_block sb -> check_sha_block program row sb

(* An exec row at an ecall: matched, not compared, so the test is no
   call into the polymorphic equality. *)
let is_ecall_row ~program (row : Trace.row) =
  match (row.kind, Program.fetch program row.pc) with
  | Trace.Exec, Some Isa.Ecall -> true
  | _ -> false

(* The call an exec row at an ecall makes; [None] on any other row
   and on an unknown call number. *)
let call_of_row ~program (row : Trace.row) =
  if is_ecall_row ~program row then Ecall.of_number row.rs1 else None

let is_sha_ecall ~program row =
  match call_of_row ~program row with Some Ecall.Sha -> true | _ -> false

let check_pair ~program (row : Trace.row) ~next =
  let* () = require (next.Trace.pc = row.next_pc) "pair: pc hand-off" in
  let* () = require (next.Trace.cycle = row.cycle + 1) "pair: cycle increment" in
  match next.Trace.kind with
  | Trace.Sha_block nb -> (
    match row.kind with
    | Trace.Exec ->
      let* () =
        require (is_sha_ecall ~program row) "pair: sha block without sha ecall"
      in
      let* () = require (nb.block_index = 0) "pair: first sha block index" in
      let* () =
        require
          (nb.src = row.rs2 && nb.total_words = row.aux.(0) && nb.dst = row.aux.(1))
          "pair: sha block params mismatch ecall"
      in
      require (nb.pre = Zkflow_hash.Sha256.iv) "pair: sha chain start"
    | Trace.Sha_block rb ->
      let blocks = Trace.sha_block_count rb.total_words in
      let* () =
        require (rb.block_index < blocks - 1) "pair: sha block after final block"
      in
      let* () = require (nb.block_index = rb.block_index + 1) "pair: sha block order" in
      let* () =
        require
          (nb.src = rb.src && nb.dst = rb.dst && nb.total_words = rb.total_words)
          "pair: sha block params drift"
      in
      require (nb.pre = rb.post) "pair: sha chaining state")
  | Trace.Exec -> (
    match row.kind with
    | Trace.Sha_block rb ->
      let blocks = Trace.sha_block_count rb.total_words in
      require (rb.block_index = blocks - 1) "pair: sha ended early"
    | Trace.Exec ->
      require (not (is_sha_ecall ~program row)) "pair: sha ecall not followed by block")

let matches expected (entry : Trace.mem_entry) ~time =
  entry.Trace.addr = expected.addr
  && entry.Trace.write = expected.write
  && entry.Trace.time = time
  && (match expected.value with None -> true | Some v -> entry.Trace.value = v)

let is_commit_row ~program row =
  match call_of_row ~program row with Some c -> Ecall.writes_journal c | None -> false

let is_halt_row ~program row =
  match call_of_row ~program row with Some Ecall.Halt -> true | _ -> false

(* A commit takes a1; a block commit takes every aux word after the
   two register values, in order, whatever their count: [check_row]
   pins that count on the rows it checks. *)
let jacc_step ~program chain (row : Trace.row) =
  match call_of_row ~program row with
  | Some c when Ecall.writes_journal c ->
    let aux = row.Trace.aux in
    if not (Ecall.block c) then begin
      let word = Bytes.create 4 in
      Bytes.set_int32_be word 0 (Int32.of_int (row.Trace.rs2 land mask32));
      Zkflow_hash.Chain.extend chain word
    end
    else if Array.length aux > 2 then
      Zkflow_hash.Chain.extend_words chain (Array.sub aux 2 (Array.length aux - 2))
    else chain
  | _ -> chain
