(** Execution traces.

    A trace is the per-cycle record of a guest run, in two synchronized
    streams:
    - {!row}: one entry per cycle — the operand values an instruction
      saw and produced, plus where its memory/register accesses live in
      the access log;
    - {!mem_entry}: the flat, time-ordered log of every register and
      RAM access (registers are addressed at [reg_base + r], so one
      offline memory-checking argument covers both).

    The proof layer Merkle-commits the serialized forms; a verifier
    re-executes any single opened row against the program. *)

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

type mem_entry = {
  addr : int;       (** word address; registers live at [reg_base + r] *)
  time : int;       (** cycle of the owning row *)
  write : bool;
  value : int;
}

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

val encode_rows : row array -> Zkflow_util.Column.t
(** The rows column. Leaf [i] is the canonical serialization of
    [rows.(i)] (its Merkle leaf preimage): every field as a
    {!Zkflow_util.Varint}, arrays length-prefixed. Every leaf is sized
    first, then chunks of rows are written on the
    {!Zkflow_parallel.Pool} into disjoint byte ranges, so the column
    is the same for every job count. Raises [Invalid_argument] on a
    negative field, before any leaf is written. *)

val decode_row : bytes -> (row, string) result
(** Inverse of one leaf of {!encode_rows}. *)

type rows
(** Row leaves decoded once into unboxed ints: every varint of every
    leaf in one int array. *)

val decode_rows : bytes array -> rows
(** [decode_rows leaves] reads every varint of every leaf once. *)

val row : rows -> int -> (row, string) result
(** [row t r] is {!decode_row} of leaf [r], read from [t]'s ints
    without parsing its bytes again: the same row, or the same refusal
    with the same message. *)

val encode_memlog : mem_entry array -> Zkflow_util.Column.t
(** The access-log column. Leaf [i] is [addr], [time], the write flag
    (0 or 1) and [value] of [log.(i)] as varints. It is built as
    {!encode_rows} builds the rows column, and raises
    [Invalid_argument] on a negative field. *)

val decode_mem : bytes -> (mem_entry, string) result
(** Inverse of one leaf of {!encode_memlog} on the entries a machine
    can log: it refuses a value outside [\[0, 2^32)] and an address
    outside RAM ([\[0, ram_limit)]) and the register file
    ([\[reg_base, reg_base + 32)]). Every coordinate the memory-check
    fingerprint reads is then below the field modulus, except [time],
    which the verifier bounds by the trace length. *)

val read_mem_into : bytes -> int ref -> int array -> int -> (unit, string) result
(** [read_mem_into b pos dst r] reads the entry whose four varints
    start at [!pos], moves [pos] past them, and writes its address,
    time, write flag (0 or 1) and value to [dst.(4r) .. dst.(4r + 3)].
    It refuses, writing nothing, what {!decode_mem} refuses of the
    entry's fields, with the same message, and raises
    [Invalid_argument] on a truncated or overflowing varint. *)

val mem_at : int array -> int -> mem_entry
(** [mem_at dst r] is the entry {!read_mem_into} wrote at [r]. *)

val mem_order : mem_entry -> mem_entry -> int
(** Order by (addr, time, write): the sort used by the offline memory
    check. Reads sort before the write of the same cycle, matching
    execution order within a row. *)

val equal_row : row -> row -> bool
val pp_row : Format.formatter -> row -> unit
