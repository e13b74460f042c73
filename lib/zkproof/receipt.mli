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

type opening = {
  index : int;
  leaf : bytes;                   (** serialized leaf preimage *)
  path : Zkflow_merkle.Proof.t;
}
(** One authenticated leaf of a committed column. *)

type step_check = {
  row : opening;          (** rows tree, index i *)
  next : opening;         (** rows tree, index i + 1 *)
  mem : opening array;    (** time-log entries owned by row i *)
  jacc : opening;         (** journal accumulator after row i *)
  jacc_next : opening;    (** after row i + 1 *)
}

type sorted_check = { first : opening; second : opening }
(** Adjacent pair of the address-sorted access log. *)

type z_check = {
  z : opening;            (** grand-product tree at j *)
  z_next : opening;       (** at j + 1 *)
  entry_next : opening;   (** the log entry at j + 1 *)
}
(** One grand-product link. Both columns share one tree, whose leaf j
    is [z_time.(j) ‖ z_sorted.(j)] ({!Memcheck.encode_z}); a time check
    reads the first half and a sorted check the second. *)

type boundary = {
  row0 : opening;
  last_row : opening;
  jacc0 : opening;
  jacc_last : opening;
  time0 : opening;
  sorted0 : opening;
  z0 : opening;       (** grand-product tree, index 0 *)
  z_last : opening;   (** grand-product tree, index n_mem − 1 *)
}

type seal = {
  params : Params.t;
  n_rows : int;
  n_mem : int;
  root_rows : Zkflow_hash.Digest32.t;
  root_time : Zkflow_hash.Digest32.t;
  root_sorted : Zkflow_hash.Digest32.t;
  root_jacc : Zkflow_hash.Digest32.t;
  root_z : Zkflow_hash.Digest32.t;  (** the shared grand-product tree *)
  steps : step_check array;
  sorteds : sorted_check array;
  zs_time : z_check array;
  zs_sorted : z_check array;
  boundary : boundary;
}

type t = { claim : claim; seal : seal }

val seal_tag : string
(** ["zkflow.seal.v2"]: the seal version every encoding starts with. *)

val encode : t -> bytes
(** The seal tag, then the claim, then the seal. *)

val decode : bytes -> (t, string) result
(** Fails with ["receipt: unsupported seal version"] on any encoding
    that does not start with {!seal_tag}, such as one from an earlier
    seal version. *)

val journal_size : t -> int
(** Journal bytes (Table 1, "Journal"). *)

val seal_size : t -> int
(** Encoded seal bytes. *)

val size : t -> int
(** Full encoded receipt bytes (Table 1, "Receipt"). *)
