(** The receipt protocol's Fiat–Shamir schedule, shared verbatim by
    prover and verifier so the two sides derive identical challenges. *)

type challenges = {
  alpha : Zkflow_field.Fp2.t;
  beta : Zkflow_field.Fp2.t;
  step_idx : int array;     (** row pair positions, in [0, n_rows−1) *)
  sorted_idx : int array;   (** sorted-log pair positions *)
  zt_idx : int array;       (** grand-product link positions (time) *)
  zs_idx : int array;       (** grand-product link positions (sorted) *)
}

val derive :
  claim:Receipt.claim ->
  journal:Zkflow_hash.Digest32.t ->
  queries:int ->
  n_rows:int ->
  n_mem:int ->
  root_rows:Zkflow_hash.Digest32.t ->
  root_time:Zkflow_hash.Digest32.t ->
  root_sorted:Zkflow_hash.Digest32.t ->
  root_jacc:Zkflow_hash.Digest32.t ->
  commit_z:
    (alpha:Zkflow_field.Fp2.t -> beta:Zkflow_field.Fp2.t -> Zkflow_hash.Digest32.t) ->
  challenges * Zkflow_hash.Digest32.t
(** [journal] is {!Receipt.journal_digest} of [claim]: the caller
    computes it once, and the verifier's boundary check reuses it.
    [commit_z] is called between the α/β draw and the index draws: the
    prover builds and commits the shared grand-product tree there; the
    verifier just returns the root claimed in the seal. Returns the
    challenges plus that one phase-2 root. The transcript domain is
    ["zkflow.zkvm.receipt.v2"]. *)

(** {2 Opened index sets}

    Which rows and access-log entries the seal opens, derived from the
    challenges alone (and, for the time log, the access spans of the
    opened rows). The rows and jacc trees hold one row per leaf, so
    their sets are leaf indices; the time, sorted and z trees hold
    four entries per leaf, and {!Logleaf.leaf_set} maps their entry
    sets to the leaves opened. The prover opens exactly these and the
    verifier requires exactly these, so the seal carries no indices.
    Every set is ascending and holds each index once. *)

type opened = {
  rows : int array;
      (** rows tree, and the jacc tree at the same indices: [0],
          [n_rows − 1], and [i], [i + 1] for each step [i] *)
  time : int array;
      (** time-ordered log entries: [0], the accesses of each step
          row, and [j + 1] for each time link [j] *)
  sorted : int array;
      (** address-sorted log entries: [0], [j] and [j + 1] for each
          sorted pair [j], and [j + 1] for each sorted link [j] *)
  z : int array;
      (** grand-product entries: [0], [n_mem − 1], and [j], [j + 1]
          for each link [j] of either column *)
}

val rows_opened : n_rows:int -> challenges -> int array
(** The [rows] set of {!opened}, needed first: the verifier reads the
    step rows' access spans out of it. *)

val opened : n_rows:int -> n_mem:int -> spans:(int * int) array -> challenges -> opened
(** [spans.(k)] is the access span [(mem_pos, mem_count)] of row
    [step_idx.(k)]: it owns log entries [mem_pos .. mem_pos + mem_count − 1].
    The caller bounds the spans; the verifier refuses any that leaves
    the log before calling. *)

val rank : int array -> int -> int
(** [rank set i] is the position of [i] in the ascending [set]: where
    its leaf sits in a rows or jacc column, and where an opened
    entry's decoded values sit in the verifier's tables. Raises
    [Not_found] when [i] is not in [set]. *)
