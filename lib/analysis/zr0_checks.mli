(** Static checks over ZR0 instruction streams.

    [analyze] builds the {!Cfg}, runs a forward abstract interpretation
    (may-uninitialized registers × the {!Interval} domain, with
    branch-edge refinement, widening at loop headers and one narrowing
    sweep) plus the graph passes, and returns one {!Finding.report}:

    - {b wellformed}: register fields in [0, 31] (short-circuits the
      rest when violated, since nothing downstream is meaningful);
    - {b uninit}: read of a register no path has written (the ABI entry
      state defines only x0); errors;
    - {b membounds}: [Lw]/[Sw]/sha accesses whose address interval lies
      {e entirely} outside guest RAM ([0, 2^28)) or whose sha length
      always exceeds the 2^24-word cap; errors. Accesses merely not
      {e proven} in-range are not findings but clear [proven_safe];
    - {b ecall}: resolved call numbers checked against {!Ecall}
      (argument registers initialized, number known); an unknown number
      is a warning, an always-invalid one an error;
    - {b control}: branch/jump targets outside the program and paths
      that fall off the end without a terminating ecall; errors;
    - {b unreachable}: code no path reaches (adjacent dead blocks are
      collapsed into one finding); warnings.

    No cycle bound is computed: {!Zkflow_zkvm.Machine.run}'s cycle
    limit stops every run that passes it. With no errors and
    [proven_safe] set, the only traps left are that limit and reading
    past the end of the input; the differential fuzzer checks this
    against the interpreter. *)

type value = { may_uninit : bool; v : Interval.t }
type state = value array

val entry_state : unit -> state
(** ABI entry: x0 = 0 and defined, every other register uninitialized. *)

val helper_entry_state : unit -> state
(** Function entry for callees: every register defined but unknown. *)

val reg_itv : state -> int -> Interval.t

val transfer :
  emit:(Finding.t -> unit) -> pc:int -> Zkflow_zkvm.Isa.t -> state -> state
(** One-instruction abstract step; exposed for tests and the taint
    pass (which runs in lockstep with the value state). *)

val refine :
  pc:int -> Zkflow_zkvm.Isa.t -> taken:bool -> state -> state option
(** Branch-edge refinement used by the solver; exposed for lockstep
    passes. *)

val solve : Cfg.t -> state option array
(** The configured {!Dataflow.solve} (entry states, refinement,
    widening); exposed so other passes analyze with identical
    precision. *)

val analyze : ?subject:string -> Zkflow_zkvm.Isa.t array -> Finding.report
