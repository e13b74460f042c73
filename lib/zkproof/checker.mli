(** Single-step re-execution: the verifier-side semantics of ZR0.

    Given an opened trace row, {!check_row} re-derives everything the
    machine's semantics determine — the result value, the next pc, the
    exact sequence of register/RAM accesses — and compares it with what
    the row claims; {!check_pair} additionally validates the chaining
    rules between two adjacent rows (pc hand-off, cycle increment,
    SHA-block sequencing). Together with the offline memory check these
    are the constraints that would be polynomial identities in a full
    STARK arithmetization. *)

type access = {
  addr : int;
  write : bool;
  value : int option;
      (** [None] = witness-determined (input words, loads into x0). *)
}
(** One expected access-log entry, in execution order. *)

val check_row :
  program:Zkflow_zkvm.Program.t ->
  Zkflow_zkvm.Trace.row ->
  (access list, string) result
(** Validates row-local semantics and returns the expected access
    pattern. [Error _] describes the violated constraint. *)

val check_pair :
  program:Zkflow_zkvm.Program.t ->
  Zkflow_zkvm.Trace.row ->
  next:Zkflow_zkvm.Trace.row ->
  (unit, string) result
(** Validates the adjacency constraints between consecutive rows. *)

val matches : access -> Zkflow_zkvm.Trace.mem_entry -> time:int -> bool
(** [matches expected entry ~time] checks one opened access-log entry
    against the expected pattern at the owning row's cycle. *)

val is_commit_row : program:Zkflow_zkvm.Program.t -> Zkflow_zkvm.Trace.row -> bool
(** True when the row is a journal-commit ecall. *)

val jacc_step :
  program:Zkflow_zkvm.Program.t ->
  Zkflow_hash.Chain.t ->
  Zkflow_zkvm.Trace.rows ->
  int ->
  Zkflow_hash.Chain.t
(** [jacc_step ~program chain rows r] is the journal-accumulator
    transition of row [r]: it extends the chain with the committed
    word (or a block commit's words, in order) on commit rows, and is
    the identity otherwise. The prover runs it over its recorded rows
    and the verifier over the opened rows it decoded; row [r] must
    form a whole row ({!Zkflow_zkvm.Trace.row} accepts it). *)

val is_halt_row : program:Zkflow_zkvm.Program.t -> Zkflow_zkvm.Trace.row -> bool
(** True when the row is a halt ecall (exit code in [rs2]). *)
