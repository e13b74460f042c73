(** Zirc — a small imperative guest language for the ZR0 zkVM.

    The paper's system "supports arbitrary queries over the committed
    telemetry data"; Zirc makes that concrete: auditors write query
    logic as structured programs (expressions, [if]/[while], guest
    memory, host calls, Merkle builtins) and {!compile} lowers them to
    ZR0 assembly, so any Zirc program gets the full receipt machinery
    for free. The built-in aggregation/query guests remain hand-written
    assembly; Zirc is the extension path (Section 7, "query
    complexity").

    Semantics are ZR0's: 32-bit wrap-around arithmetic, word-addressed
    memory zero-initialised, comparison operators returning 0/1.

    Compilation model (deliberately simple, correctness over speed):
    locals live in a fixed memory region, expressions evaluate on a
    short register stack (depth ≤ 7 — deeper expressions are a compile
    error; bind subexpressions to locals instead). *)

(** {2 Abstract syntax} *)

type binop =
  | Add | Sub | Mul
  | Divu | Remu                (** RISC-V M semantics: x/0 = 2^32 − 1, x%0 = x *)
  | And | Or | Xor
  | Shl | Shr
  | Eq | Neq
  | Lt | Le | Gt | Ge          (** unsigned comparisons, 0/1 *)
  | Slt                        (** signed less-than *)

type expr =
  | Int of int                 (** 32-bit literal (wrapped) *)
  | Var of string
  | Bin of binop * expr * expr
  | Load of expr               (** mem\[e\] *)
  | Read_word                  (** next private input word *)
  | Input_avail
  | Cmp8 of expr * expr        (** 1 iff the 8-word digests at the two
                                   addresses are equal *)

type stmt =
  | Let of string * expr       (** declare and initialise a local *)
  | Set of string * expr       (** assign an existing local *)
  | Store of expr * expr       (** mem\[e1\] := e2 *)
  | If of expr * block * block
  | While of expr * block
  | Commit of expr             (** append to the public journal *)
  | Sha of { src : expr; words : expr; dst : expr }
  | Read_words of { dst : expr; count : expr }
  | Commit_words of { src : expr; count : expr }
  | Read_entries of { dst : expr; count : expr }
      (** [count] 8-word input entries, entry i at
          [dst + ]{!entry_stride}[ * i] *)
  | Leaf_hashes of { entries : expr; count : expr; out : expr }
      (** domain-tagged Merkle leaf hashes of 8-word entries laid as
          [Read_entries] lays them, each hashed where it lies after the
          3 words its tag is written to *)
  | Merkle_root of { leaves : expr; count : expr }
      (** in-place reduction; root lands in the first 8 words *)
  | Halt of expr
  | Debug of expr

and block = stmt list

type program = block

val entry_stride : int
(** [11]: the words from one entry to the next in the layout
    [Read_entries] writes and [Leaf_hashes] reads (8 entry words after
    the 3 words of the leaf tag); [entry_stride()] in source. *)

(** {2 Compilation} *)

val locals_base : int
(** Word address of the compiler's local-variable region (0x800000);
    programs must not [Store] into it. *)

val compile : program -> (Zkflow_zkvm.Program.t, string) result
(** Lowers to ZR0 and appends the {!Zkflow_zkvm.Guestlib} runtime.
    Fails on undefined/duplicate variables or over-deep expressions.
    A [Halt 0] is appended if the program can fall off the end. *)

(** {2 Reference semantics} *)

type outcome = {
  journal : int array;
  debug : int list;
  exit_code : int;
}

val interpret :
  ?fuel:int -> program -> input:int array -> (outcome, string) result
(** Direct evaluation with the same 32-bit semantics — the oracle the
    compiler is property-tested against. [fuel] bounds loop steps
    (default 10^7). The Merkle builtins are evaluated with the same
    host hash code the guest runtime mirrors. *)

(** {2 Convenience} *)

val pp_stmt : Format.formatter -> stmt -> unit
val pp_program : Format.formatter -> program -> unit
