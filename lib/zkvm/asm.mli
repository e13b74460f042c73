(** Assembler eDSL for ZR0 guest programs.

    Programs are written as OCaml lists of {!item}s; labels are symbolic
    and resolved to absolute instruction indices by {!assemble}. All
    ABI register names are exported as values so guest sources read
    like assembly:

    {[
      let guest = Asm.(assemble [
        label "loop";
        lw t0 a0 0;
        addi a0 a0 1;
        bne t0 zero "loop";
        halt 0;
      ])
    ]} *)

type item

(** {2 Registers (ABI names)} *)

val zero : Isa.reg
val ra : Isa.reg
val sp : Isa.reg
val gp : Isa.reg
val tp : Isa.reg
val t0 : Isa.reg
val t1 : Isa.reg
val t2 : Isa.reg
val s0 : Isa.reg
val s1 : Isa.reg
val a0 : Isa.reg
val a1 : Isa.reg
val a2 : Isa.reg
val a3 : Isa.reg
val a4 : Isa.reg
val a5 : Isa.reg
val a6 : Isa.reg
val a7 : Isa.reg
val s2 : Isa.reg
val s3 : Isa.reg
val s4 : Isa.reg
val s5 : Isa.reg
val s6 : Isa.reg
val s7 : Isa.reg
val s8 : Isa.reg
val s9 : Isa.reg
val s10 : Isa.reg
val s11 : Isa.reg
val t3 : Isa.reg
val t4 : Isa.reg
val t5 : Isa.reg
val t6 : Isa.reg

(** {2 Structure} *)

val label : string -> item
(** Marks the next instruction's index. *)

val comment : string -> item
(** No-op; kept for listings. *)

val block : item list -> item
(** Splices a sub-list (lets helpers return multiple items). *)

(** {2 Instructions} — register-register ALU *)

val add : Isa.reg -> Isa.reg -> Isa.reg -> item
val sub : Isa.reg -> Isa.reg -> Isa.reg -> item
val mul : Isa.reg -> Isa.reg -> Isa.reg -> item
val and_ : Isa.reg -> Isa.reg -> Isa.reg -> item
val or_ : Isa.reg -> Isa.reg -> Isa.reg -> item
val xor : Isa.reg -> Isa.reg -> Isa.reg -> item
val sll : Isa.reg -> Isa.reg -> Isa.reg -> item
val srl : Isa.reg -> Isa.reg -> Isa.reg -> item
val sra : Isa.reg -> Isa.reg -> Isa.reg -> item
val slt : Isa.reg -> Isa.reg -> Isa.reg -> item
val sltu : Isa.reg -> Isa.reg -> Isa.reg -> item
val divu : Isa.reg -> Isa.reg -> Isa.reg -> item
val remu : Isa.reg -> Isa.reg -> Isa.reg -> item

(** {2 Immediate ALU} *)

val addi : Isa.reg -> Isa.reg -> int -> item
val andi : Isa.reg -> Isa.reg -> int -> item
val ori : Isa.reg -> Isa.reg -> int -> item
val xori : Isa.reg -> Isa.reg -> int -> item
val slli : Isa.reg -> Isa.reg -> int -> item
val srli : Isa.reg -> Isa.reg -> int -> item
val muli : Isa.reg -> Isa.reg -> int -> item
val slti : Isa.reg -> Isa.reg -> int -> item
val sltiu : Isa.reg -> Isa.reg -> int -> item
val divui : Isa.reg -> Isa.reg -> int -> item
val remui : Isa.reg -> Isa.reg -> int -> item

(** {2 Memory} *)

val lw : Isa.reg -> Isa.reg -> int -> item
(** [lw rd base off]: rd := mem\[base + off\]. *)

val sw : Isa.reg -> Isa.reg -> int -> item
(** [sw rs2 base off]: mem\[base + off\] := rs2. *)

(** {2 Control flow (label targets)} *)

val beq : Isa.reg -> Isa.reg -> string -> item
val bne : Isa.reg -> Isa.reg -> string -> item
val blt : Isa.reg -> Isa.reg -> string -> item
val bge : Isa.reg -> Isa.reg -> string -> item
val bltu : Isa.reg -> Isa.reg -> string -> item
val bgeu : Isa.reg -> Isa.reg -> string -> item
val jal : Isa.reg -> string -> item
val jalr : Isa.reg -> Isa.reg -> int -> item

(** {2 Pseudo-instructions} *)

val li : Isa.reg -> int -> item
(** Load a full 32-bit immediate. *)

val mv : Isa.reg -> Isa.reg -> item
val nop : item
val j : string -> item
(** Unconditional jump. *)

val call : string -> item
(** [jal ra label]. *)

val ret : item
(** [jalr zero ra 0]. *)

(** {2 Host calls} *)

val ecall : item
(** Raw [Ecall] (call number already in a0). The pseudo-instructions
    below are usually more convenient. *)

val halt : int -> item
(** Sets a0 := 0, a1 := code, ecall. Clobbers a0, a1. *)

val read_word : Isa.reg -> item
(** rd := next input word. Clobbers a0. *)

val commit : Isa.reg -> item
(** Journal ← rs. Clobbers a0, a1 (a1 receives rs first). *)

val sha : src:Isa.reg -> words:Isa.reg -> dst:Isa.reg -> item
(** SHA-256 over memory. Moves the operands into a1–a3, sets a0 := 3,
    ecall. Clobbers a0–a3. *)

val read_block : dst:Isa.reg -> count:Isa.reg -> item
(** Memory[dst .. dst + count) ← the next [count] input words, in one
    trace row ([count] in 1–8). Moves the operands into a1, a2, sets
    a0 := 6, ecall. Clobbers a0–a2. *)

val commit_block : src:Isa.reg -> count:Isa.reg -> item
(** Journal ← memory[src .. src + count), in one trace row ([count] in
    1–8). Moves the operands into a1, a2, sets a0 := 7, ecall.
    Clobbers a0–a2. *)

val debug : Isa.reg -> item
(** Host-side print of rs. Clobbers a0, a1. *)

val input_avail : Isa.reg -> item
(** rd := remaining input words. Clobbers a0. *)

val assemble : item list -> Program.t
(** Resolves labels and produces a program. Raises [Invalid_argument]
    on duplicate or undefined labels. *)
