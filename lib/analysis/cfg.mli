(** Control-flow graph over a ZR0 instruction array, partitioned into
    functions.

    Basic blocks are maximal straight-line runs; every [Branch], [Jal],
    [Jalr] and [Ecall] ends its block. Edges are {e function-local}:

    - [Branch]: taken target and fall-through;
    - [Jal x0]: plain jump, target only;
    - linking [Jal] (rd ≠ x0): a {e call} — the local successor is
      pc+1 (where the callee returns) and the target becomes a live
      function entry of its own, recorded in [entries];
    - [Jalr x0]: a {e return} — no local successors;
    - linking [Jalr]: an indirect call, successor pc+1;
    - [Ecall]: fall-through, except the syntactic halt idiom
      [Lui (a0, 0); Ecall] which is terminal (no successors).

    This is sound for code that only obtains code addresses via link
    registers — true of everything the assembler and the Zirc compiler
    emit; arithmetic on return addresses is out of scope (DESIGN.md
    §8). Edges whose target leaves [0, n) are not graph edges; they are
    recorded in [escapes] (the machine traps on such a fetch, so the
    fall-off / wild-jump check reports them). *)

type block = {
  id : int;
  first : int;   (** pc of the first instruction *)
  last : int;    (** pc of the last instruction *)
  succs : int list;  (** successor block ids (function-local) *)
}

type t = {
  program : Zkflow_zkvm.Isa.t array;
  blocks : block array;
  block_of_pc : int array;
  reachable : bool array;      (** per block, from any live entry *)
  entries : int list;          (** live function entry pcs; 0 first *)
  escapes : (int * int) list;  (** (pc, target) edges leaving the program *)
}

val build : Zkflow_zkvm.Isa.t array -> t
(** Raises [Invalid_argument] on an empty program. *)

val reachable_pc : t -> int -> bool

val back_edge_headers : t -> int list
(** pcs of loop headers reachable from the live entries (targets of
    DFS back edges over local graphs); empty iff every reachable
    function body is acyclic. *)

val pp : Format.formatter -> t -> unit
