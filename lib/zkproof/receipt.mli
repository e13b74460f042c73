(** Receipts: the zkVM proof artifact.

    Mirrors RISC Zero's receipt structure: a public {!claim} (image ID,
    exit code, journal) plus a {!seal} — here, the trace-commitment
    spot-check argument described in DESIGN.md §2. The seal grows with
    O(queries · log(cycles)); the claim's journal grows with the
    guest's committed output (Table 1's "Journal" column); the wrapped
    form ({!Wrap}) is the constant 256-byte "Proof" column. *)

type claim = {
  image_id : Zkflow_hash.Digest32.t;
  exit_code : int;
  journal : int array; (** committed 32-bit words, in order *)
}

val journal_digest : claim -> Zkflow_hash.Digest32.t
(** Chain hash over the journal words (4 bytes big-endian each) — the
    value the in-proof journal accumulator must reach. *)

val claim_digest : claim -> Zkflow_hash.Digest32.t
(** Binds image id, exit code and journal; the wrap MACs this. *)

val check_claim : claim -> (unit, string) result
(** Rejects an exit code or journal word outside [\[0, 2{^32})]. The
    digests above see each word's low 32 bits only, so without this
    check a word raised by a multiple of 2{^32} would still verify.
    {!Verify.verify} and {!Wrap.verify} both run it first. *)

val node : Zkflow_merkle.Proof.node
(** The node rule of every trace-commitment tree:
    {!Zkflow_hash.Sha256.node64}, one compression per node. The
    prover builds under it and the verifier checks under it, so the
    two cannot diverge. *)

type column = {
  leaves : bytes array;
      (** the leaf preimages the challenges open under one root, in
          ascending index order and each once *)
  helpers : bytes;
      (** the helper digests of one {!Zkflow_merkle.Multiproof} over
          those leaves, 32 bytes each *)
}
(** One committed column's openings. The seal carries no indices:
    the verifier derives each column's index set ({!Fs.opened}). *)

type seal = {
  params : Params.t;
  n_rows : int;
  n_mem : int;
  root_rows : Zkflow_hash.Digest32.t;
  root_time : Zkflow_hash.Digest32.t;
  root_sorted : Zkflow_hash.Digest32.t;
  root_jacc : Zkflow_hash.Digest32.t;
  root_z : Zkflow_hash.Digest32.t;
      (** the shared grand-product tree: leaf j is
          [z_time.(j) ‖ z_sorted.(j)] ({!Memcheck.encode_z}) *)
  rows : column;    (** trace rows, under [root_rows] *)
  jacc : column;    (** journal accumulator, under [root_jacc], at the rows' indices *)
  time : column;    (** time-ordered access log, under [root_time] *)
  sorted : column;  (** address-sorted access log, under [root_sorted] *)
  z : column;       (** grand products, under [root_z] *)
}

val columns : seal -> (string * column) list
(** The five columns by name, in encoding order: rows, jacc, time,
    sorted, z. *)

type t = { claim : claim; seal : seal }

val seal_tag : string
(** ["zkflow.seal.v4"]: the seal version every encoding starts with. *)

val max_leaves : queries:int -> int
(** [32 · queries + 2]: the most leaves one column may open. The
    widest column is the time log: entry 0, one link entry per query,
    and the accesses of each opened step row, at most 24 (a last SHA
    block's 16 reads and 8 writes). *)

val encode : t -> bytes
(** The seal tag, then the claim, then the seal. *)

val decode : bytes -> (t, string) result
(** Fails with ["receipt: unsupported seal version"] on any encoding
    that does not start with {!seal_tag}, such as one from an earlier
    seal version. Before allocating a column it refuses a leaf count
    above {!max_leaves} and a helper blob that is not whole digests or
    holds more than 64 per leaf. *)

val journal_size : t -> int
(** Journal bytes (Table 1, "Journal"). *)

val seal_size : t -> int
(** Encoded seal bytes. *)

val size : t -> int
(** Full encoded receipt bytes (Table 1, "Receipt"). *)
