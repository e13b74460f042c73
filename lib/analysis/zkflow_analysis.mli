(** Static analysis for ZR0 guest programs and Zirc sources.

    The analyzer proves simple safety facts about a guest {e before}
    any cycles are spent proving its execution: no read of a register
    no path initialises, no statically-out-of-range memory access, no
    fall-off-the-end or wild control transfer, host calls that follow
    the ecall protocol — plus advisory warnings (unreachable code,
    statically-unknown ecall numbers). [zkflow audit] layers the
    {!Taint} information-flow pass on top. DESIGN.md §8 and §13 record
    the lattices and conservatism choices.

    Every pass records a wall-time span ([analysis.lint],
    [analysis.zr0], [analysis.taint-zirc], [analysis.taint-zr0]) and
    finding counters ([analysis.findings], [analysis.errors],
    [analysis.trusted_suppressed]) through {!Zkflow_obs}. *)

module Finding = Finding
module Cfg = Cfg
module Dataflow = Dataflow
module Interval = Interval
module Zr0_checks = Zr0_checks
module Zirc_lint = Zirc_lint
module Taint = Taint

val check : ?subject:string -> Zkflow_zkvm.Program.t -> Finding.report
(** Analyze an assembled guest (value analysis only — what {!gate}
    and [zkflow lint] run). *)

val check_instrs : ?subject:string -> Zkflow_zkvm.Isa.t array -> Finding.report

val check_zirc :
  ?subject:string ->
  ?positions:Zkflow_lang.Zirc_parse.stmt_pos list ->
  Zkflow_lang.Zirc.program ->
  Finding.report
(** {!Zirc_lint} on the AST, then — when the program compiles — the ZR0
    analysis of the lowered code, merged into one report. A compile
    failure becomes a ["compile"] error finding. *)

val audit : ?subject:string -> Zkflow_zkvm.Isa.t array -> Finding.report
(** The full audit of a raw ZR0 guest: value analysis plus the
    assembly-level taint pass, findings merged, deduplicated and
    position-sorted. *)

val audit_zirc :
  ?subject:string ->
  ?positions:Zkflow_lang.Zirc_parse.stmt_pos list ->
  Zkflow_lang.Zirc.program ->
  Finding.report
(** The full audit of a Zirc source: lint, source-level taint, and the
    ZR0 value analysis of the lowered code. ZR0 ["unreachable"]
    findings are dropped for Zirc subjects (the compiler's lowering of
    [halt] leaves structurally dead tails; the [zirc-unreachable] lint
    covers source-level dead code). *)

val gate : ?subject:string -> Zkflow_zkvm.Program.t -> (unit, string) result
(** The gate {!Zkflow_core.Prover_service.prove_custom} runs before
    proving a program that arrives from outside (a compiled Zirc
    query): [Ok ()] when {!check} finds no [Error]-severity finding,
    otherwise a printable refusal naming each one. The built-in guests
    are fixed at build time and not gated at run time; their image ids
    are pinned and [zkflow lint] analyzes them. *)
