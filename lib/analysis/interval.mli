(** Widening/narrowing interval domain over unsigned 32-bit words,
    refined by a power-of-two congruence (x ≡ residue mod modulus) so
    word-strided address arithmetic (base + i*8) keeps its stride
    through joins. Replaces the flat constant lattice of the original
    analyzer (DESIGN.md §13).

    Invariants: [0 <= lo <= hi <= 2^32-1]; [modulus] is [0] (exact
    value = [residue]) or a power of two dividing 2^32 ([1] = trivial);
    bounds are tightened to members of the congruence class; singleton
    intervals are always represented exactly ([modulus = 0]). *)

type t = private { lo : int; hi : int; modulus : int; residue : int }

val top : t
val const : int -> t
(** Exact value (masked to 32 bits). *)

val range : int -> int -> t
(** [range lo hi] with the trivial congruence (clamped; [top] if empty). *)

val make : int -> int -> int -> int -> t
(** [make lo hi modulus residue], normalised; [top] if contradictory. *)

val is_const : t -> int option
val contains : t -> int -> bool
val equal : t -> t -> bool

val join : t -> t -> t
val meet : t -> t -> t option
(** [None] = the intersection is empty. *)

val widen : t -> t -> t
(** [widen old nw] (where [nw] already subsumes [old]): unstable bounds
    jump to the next member of a finite threshold set (RAM limit, the
    Zirc locals region, small powers of two), guaranteeing termination
    while keeping membounds decidable at loop heads. *)

val alu : Zkflow_zkvm.Isa.alu -> t -> t -> t
(** Abstract transformer over {!Zkflow_zkvm.Isa.alu_eval}; exact on
    singleton operands (it calls it). *)

val refine_branch :
  Zkflow_zkvm.Isa.branch -> taken:bool -> t -> t -> (t * t) option
(** Refine both operands under "this branch evaluated to [taken]";
    [None] means the edge is infeasible. Signed comparisons refine only
    when both operands provably avoid the sign bit. *)

val pp : Format.formatter -> t -> unit
