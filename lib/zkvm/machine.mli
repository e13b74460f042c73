(** The ZR0 interpreter.

    Executes a {!Program} against a word-stream input (the private
    witness) and produces the public journal, the exit code, and —
    when tracing is on — the full execution trace consumed by the proof
    layer, recorded as {!Trace}'s int columns as it runs: each access
    and each row appends its ints, no record is built per row or per
    access, and the finished columns are the result's, not a copy.

    Host calls ([Ecall] with the call number in a0):
    - [0] halt: exit code in a1; execution stops.
    - [1] read-word: a0 ← next input word. Traps when input is
      exhausted.
    - [2] commit-word: appends a1 to the journal.
    - [3] sha256: hash [a2] words of memory starting at word address
      [a1] (bytes are the words big-endian, standard SHA-256 padding)
      and write the 8 digest words at address [a3]. Costs one cycle per
      compression block plus the ecall cycle, mirroring RISC Zero's SHA
      accelerator.
    - [4] debug-print: records a1 on the host side; no semantic effect.
    - [5] input-avail: a0 ← number of unread input words. *)

exception Trap of { cycle : int; pc : int; reason : string }
(** Raised on invalid execution: bad pc, RAM address out of range,
    reading past the input, unknown ecall, or cycle-limit overrun. A
    trapped execution has no receipt (like a faulted zkVM guest). *)

type result = {
  exit_code : int;
  cycles : int;                      (** total rows = proof cost driver *)
  journal : int array;               (** committed 32-bit words *)
  debug : int list;                  (** debug-print values, in order *)
  rows : Trace.rows;                 (** empty unless [trace] *)
  memlog : Trace.log;                (** empty unless [trace] *)
}

val default_max_cycles : int
(** The default [max_cycles] of {!run} ([50_000_000]): the only cycle
    budget. A run that passes it traps; no static bound is computed. *)

val run :
  ?trace:bool -> ?max_cycles:int -> Program.t -> input:int array -> result
(** [run p ~input] executes to halt. [trace] (default [false]) records
    rows and the access log; [max_cycles] (default
    {!default_max_cycles}) bounds execution. *)

val journal_bytes : int array -> bytes
(** The journal as bytes: each word big-endian, in order — the form
    hashed into receipts and parsed by verifier clients. *)
