(** The ZR0 host-call protocol as data: numbers, argument/result
    registers, and each call's information-flow role. Shared by the
    machine, the static analyzer's protocol checks, and the taint pass
    so source/sink classification cannot drift between them. *)

type t =
  | Halt
  | Read_word
  | Commit
  | Sha
  | Debug
  | Input_avail
  | Read_block  (** a1 = dst, a2 = count: the next [count] input words to RAM *)
  | Commit_block  (** a1 = src, a2 = count: [count] RAM words to the journal *)

val of_number : int -> t option
val number : t -> int

val max_number : int
(** The highest call number; every number above it traps. *)

val name : t -> string

val max_block : int
(** [8]: the most words one block call moves. A count outside
    [1 .. max_block] traps. *)

val block : t -> bool
(** True for the calls that move RAM words [a1 .. a1 + a2 - 1] in one
    trace row ([Read_block], [Commit_block]); the row's aux carries
    the words after the two register values. *)

val arg_regs : t -> int list
(** Registers the call reads, beyond a0 (the call number). *)

val result_regs : t -> int list
(** Registers the call writes. *)

val reads_input : t -> bool
(** True for calls that return untrusted router-export input
    ([Read_word], [Input_avail], [Read_block]) — taint sources. *)

val writes_journal : t -> bool
(** True for calls that append to the receipt journal ([Commit],
    [Commit_block]) — taint sinks. *)
