(** Execution traces.

    A trace is the per-cycle record of a guest run, in two synchronized
    int columns:
    - {!rows}: one row per cycle — the operand values an instruction
      saw and produced, plus where its memory/register accesses live in
      the access log;
    - {!log}: the flat, time-ordered log of every register and RAM
      access (registers are addressed at [reg_base + r], so one
      offline memory-checking argument covers both), four ints per
      entry.

    {!Machine} appends to both as it runs ({!exec_row}, {!sha_row},
    {!log_access}); the prover encodes them into its committed columns
    ({!encode_rows}, {!encode_log}) and the verifier decodes the
    opened leaves back into the same columns ({!decode_rows},
    {!read_mem_into}). This module is the only place the row field
    order and the entry layout are spelled. A column grows in
    fixed-size chunks, so recording copies no int and allocates
    nothing per row. {!row} and {!mem_at} are the record views the
    verifier's checks and the tests read. *)

type sha_block = {
  block_index : int;   (** 0-based block number within the ecall *)
  total_words : int;   (** message length of the whole ecall, words *)
  src : int;           (** message base address (word) *)
  dst : int;           (** digest destination address (word) *)
  block : int array;   (** the 16 padded message-schedule words *)
  pre : int array;     (** 8-word chaining state before this block *)
  post : int array;    (** 8-word chaining state after this block *)
}
(** One SHA-256 compression step of the accelerator ecall. *)

type kind = Exec | Sha_block of sha_block

type row = {
  cycle : int;
  pc : int;
  next_pc : int;
  kind : kind;
  rs1 : int;        (** first operand value (0 when unused) *)
  rs2 : int;        (** second operand value *)
  rd : int;         (** result value written (0 when none) *)
  aux : int array;  (** instruction-specific: Lw/Sw \[addr\]; ecall io words *)
  mem_pos : int;    (** index of this row's first access-log entry *)
  mem_count : int;  (** number of access-log entries owned by this row *)
}
(** The record view of one row. *)

type mem_entry = {
  addr : int;       (** word address; registers live at [reg_base + r] *)
  time : int;       (** cycle of the owning row *)
  write : bool;
  value : int;
}
(** The record view of one access-log entry. *)

val sha_block_count : int -> int
(** [sha_block_count total] is the number of compression blocks for a
    word-aligned message of [total] words: ⌈(4·total + 9) / 64⌉. *)

val sha_padded_word : total:int -> int -> int option
(** [sha_padded_word ~total w] is [None] when padded-word index [w] is
    a message word ([w < total]), and [Some v] when it is the padding
    word with value [v] (the 0x80 marker, zeros, or the bit length). *)

val reg_base : int
(** Base address of the register file in the unified address space
    (above any legal RAM address). *)

val ram_limit : int
(** Exclusive upper bound on RAM word addresses (2^28). *)

(** {1 The rows} *)

type rows
(** Rows as ints: every field of every row in leaf order (cycle, pc,
    next_pc, the kind, a sha block's fields, rs1, rs2, rd, the aux
    words length-prefixed, mem_pos, mem_count) in one chunked int
    column, plus each row's end. *)

type log
(** The access log as ints: address, time, write flag (0 or 1) and
    value of each entry, in a chunked int column. *)

val recording : unit -> rows
(** An empty rows column to record into. *)

val n_rows : rows -> int

val exec_row :
  rows -> log -> pc:int -> next_pc:int -> rs1:int -> rs2:int -> rd:int -> aux:int array ->
  aux_len:int -> unit
(** [exec_row t log ~pc ~next_pc ~rs1 ~rs2 ~rd ~aux ~aux_len] appends
    an exec row whose aux words are [aux.(0 .. aux_len - 1)]. Its cycle
    is the row count so far, and it owns the entries [log] gained since
    the previous row. Allocates nothing unless a chunk fills. *)

val sha_row :
  rows -> log -> pc:int -> next_pc:int -> block_index:int -> total_words:int -> src:int ->
  dst:int -> block:int array -> pre:int array -> post:int array -> unit
(** [sha_row] appends a sha block row as {!exec_row} appends an exec
    row, with rs1, rs2 and rd 0 and no aux words. *)

val of_rows : row array -> rows
(** The rows column of records, field for field, whatever their
    values: how a test builds forged rows. *)

val row : rows -> int -> (row, string) result
(** [row t r] reads row [r] from [t]'s ints. On decoded rows it is
    {!decode_row} of leaf [r], without parsing its bytes again: the
    same row, or the same refusal with the same message. *)

(** The fields of a row whose ints form a whole row (one recorded, or
    one {!row} accepted), read in place; [rs1], [rs2] and [aux_words]
    of an exec row ({!is_exec}). *)

val pc : rows -> int -> int
val is_exec : rows -> int -> bool
val rs1 : rows -> int -> int
val rs2 : rows -> int -> int

val aux_words : rows -> int -> from:int -> int array
(** [aux_words t r ~from] is a copy of row [r]'s aux words from
    index [from] on; [[||]] when it has no more than [from]. *)

val mem_pos : rows -> int -> int
val mem_count : rows -> int -> int

val encode_rows : rows -> Zkflow_util.Column.t
(** The rows column. Leaf [r] is the varints of row [r]'s ints: the
    canonical serialization of the row (its Merkle leaf preimage).
    Every leaf is sized first, then chunks of rows are written on the
    {!Zkflow_parallel.Pool} into disjoint byte ranges, so the column
    is the same for every job count. Raises [Invalid_argument] on a
    negative field, before any leaf is written. *)

val decode_row : bytes -> (row, string) result
(** Inverse of one leaf of {!encode_rows}. *)

val decode_rows : bytes array -> rows
(** [decode_rows leaves] reads every varint of every leaf once into a
    rows column sized exactly, keeping each leaf's refusal for
    {!row}. *)

(** {1 The access log} *)

val log_recording : unit -> log
(** An empty log to record into. *)

val log_make : int -> log
(** [log_make m] is a log of [m] zero entries, sized exactly, for
    {!read_mem_into} to fill. *)

val n_entries : log -> int

val log_access : log -> addr:int -> time:int -> write:bool -> value:int -> unit
(** Appends one entry. Allocates nothing unless a chunk fills. *)

val log_of_entries : mem_entry array -> log
(** The log of records, field for field: how a test builds a forged
    log. *)

val mem_at : log -> int -> mem_entry
(** [mem_at log r] is entry [r]. *)

val iter_log : log -> (int -> int -> int -> int -> int -> unit) -> unit
(** [iter_log log f] calls [f r addr time write value] on every entry
    in order, [write] 0 or 1. *)

val addresses : log -> int array
(** [addresses log] is every entry's address, in order. *)

val first_unordered : log -> int array -> int option
(** [first_unordered log perm] is the first [j ≥ 1] at which entry
    [perm.(j - 1)] sorts after entry [perm.(j)] by {!mem_order}, or
    [None] when the entries are in order. *)

val encode_log : log -> Zkflow_util.Column.t
(** The access-log column, one entry per leaf: [addr], [time], the
    write flag and [value] as varints. It is built as {!encode_rows}
    builds the rows column, and raises [Invalid_argument] on a
    negative field. *)

val decode_mem : bytes -> (mem_entry, string) result
(** Inverse of one leaf of {!encode_log} on the entries a machine
    can log: it refuses a value outside [\[0, 2^32)] and an address
    outside RAM ([\[0, ram_limit)]) and the register file
    ([\[reg_base, reg_base + 32)]). Every coordinate the memory-check
    fingerprint reads is then below the field modulus, except [time],
    which the verifier bounds by the trace length. *)

val read_mem_into : bytes -> int ref -> log -> int -> (unit, string) result
(** [read_mem_into b pos dst r] reads the entry whose four varints
    start at [!pos], moves [pos] past them, and writes it as entry [r]
    of [dst]. It refuses, writing nothing, what {!decode_mem} refuses
    of the entry's fields, with the same message, and raises
    [Invalid_argument] on a truncated or overflowing varint. *)

val mem_order : mem_entry -> mem_entry -> int
(** Order by (addr, time, write): the sort used by the offline memory
    check. Reads sort before the write of the same cycle, matching
    execution order within a row. *)

val equal_row : row -> row -> bool
val pp_row : Format.formatter -> row -> unit
