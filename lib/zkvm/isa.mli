(** The ZR0 instruction set: a RISC-V-flavoured 32-bit register machine.

    ZR0 plays the role RISC-V plays inside the RISC Zero zkVM: guest
    programs compile to it (via the {!Asm} eDSL), the {!Machine}
    interprets it while recording an execution trace, and the proof
    layer re-executes single steps from opened trace rows.

    Conventions, chosen for provability rather than realism:
    - 32 registers of 32-bit words; [x0] is hard-wired to zero.
    - memory is word-addressed: address [a] names the [a]-th 32-bit
      word. Valid data addresses are [0, 2^28).
    - the program counter is an instruction index, not a byte address;
      branch and jump targets are absolute indices (the assembler
      resolves labels to these).
    - [Ecall] invokes the host with the call number in [a0] (x10):
      0 halt, 1 read-word, 2 commit-word, 3 sha256, 4 debug-print,
      5 input-avail (see {!Machine}). *)

type reg = int
(** Register number in [0, 31]. *)

type alu =
  | ADD | SUB | MUL | AND | OR | XOR | SLL | SRL | SRA | SLT | SLTU
  | DIVU | REMU
(** Register-register ALU operations. [SLT]/[SRA] are signed; shifts
    use the low 5 bits of the second operand; [DIVU]/[REMU] follow
    RISC-V M semantics (x/0 = 2^32 − 1, x mod 0 = x). *)

type branch = BEQ | BNE | BLT | BGE | BLTU | BGEU
(** Conditional branches; [BLT]/[BGE] are signed. *)

type t =
  | Alu of alu * reg * reg * reg        (** [Alu (op, rd, rs1, rs2)] *)
  | Alui of alu * reg * reg * int       (** [Alui (op, rd, rs1, imm)]; imm is a 32-bit word *)
  | Lui of reg * int                    (** [rd := imm] (full 32-bit load) *)
  | Lw of reg * reg * int               (** [rd := mem\[rs1 + imm\]] *)
  | Sw of reg * reg * int               (** [mem\[rs1 + imm\] := rs2]; [Sw (rs2, rs1, imm)] *)
  | Branch of branch * reg * reg * int  (** compare rs1, rs2; taken → pc := target *)
  | Jal of reg * int                    (** [rd := pc + 1; pc := target] *)
  | Jalr of reg * reg * int             (** [rd := pc + 1; pc := rs1 + imm] *)
  | Ecall                               (** host call, number in a0 *)

val signed : int -> int
(** A 32-bit word read as two's complement, in [-2^31, 2^31). *)

val alu_eval : alu -> int -> int -> int
(** ZR0's word semantics, the one definition the interpreter, the
    proof checker and the analyzer's interval domain all call: both
    operands and the result are 32-bit words in [0, 2^32). *)

val branch_eval : branch -> int -> int -> bool
(** Whether a branch on two 32-bit words is taken. *)

val registers_used : t -> reg option * reg option * reg option
(** [(rs1, rs2, rd)] of an instruction; [Ecall] reports its implicit
    a0–a3 reads via {!Machine}, not here. *)

val encode : t -> bytes
(** Deterministic 12-byte encoding; only used to derive image IDs.
    [rs2] of register-register ALU instructions travels in the
    immediate field so every register field keeps its full range. *)

val decode : bytes -> (t, string) result
(** Strict inverse of {!encode}: rejects wrong lengths, unknown
    opcodes/function codes, out-of-range register fields and nonzero
    unused fields, so [decode (encode i) = Ok i] and every 12-byte
    string decodes to at most one instruction. *)

val reg_name : reg -> string
(** ABI-style name ("zero", "ra", "a0", …). *)

val pp : Format.formatter -> t -> unit
