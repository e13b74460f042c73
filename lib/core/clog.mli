(** Combined logs (CLogs): the aggregated, Merkle-committed per-flow
    dataset of Section 4.

    A CLog state is an ordered array of entries — flow key plus
    aggregated metrics — whose order is {i insertion order across
    rounds}: entries survive at their index and new flows append. That
    stable order is what lets round k's guest verify round k−1's Merkle
    root by rebuilding the same tree. *)

type entry = { key : Zkflow_netflow.Flowkey.t; metrics : Zkflow_netflow.Record.metrics }

val entry_words : entry -> int array
(** 8 words, identical to {!Zkflow_netflow.Record.to_words} on the
    committed fields. *)

val entry_of_words : int array -> (entry, string) result

val entry_bytes : entry -> bytes
(** 32 bytes (the Merkle leaf preimage). *)

val leaf_digest : entry -> Zkflow_hash.Digest32.t
(** [Zkflow_merkle.Tree.leaf_hash] of {!entry_bytes}. *)

type t
(** An immutable CLog state. *)

val empty : t
val entries : t -> entry array
val length : t -> int

val of_entries : entry array -> (t, string) result
(** Fails on duplicate flow keys. *)

val of_entries_with_snapshot : entry array -> snapshot:bytes -> (t, string) result
(** Like {!of_entries}, but adopt a persisted
    {!Zkflow_merkle.Tree.to_snapshot} of the tree instead of lazily
    rebuilding it — the restore path of checkpoint rows. Fails on
    duplicate keys, a malformed snapshot, or a snapshot whose leaf
    count differs from the entries. The snapshot's node hashes are
    trusted; callers must integrity-protect the bytes (checkpoint rows
    are checksummed). *)

val root : t -> Zkflow_hash.Digest32.t
(** Merkle root over the entries in order (empty-tree root for
    {!empty}). *)

val tree : t -> Zkflow_merkle.Tree.t
(** The full tree, for inclusion proofs about individual flows. *)

val node : Zkflow_merkle.Proof.node
(** The tree's node rule, {!Zkflow_hash.Sha256.digest64}, the one the
    aggregation guest recomputes; readout multiproofs are checked
    under it. *)

val tree_snapshot : t -> bytes
(** {!Zkflow_merkle.Tree.to_snapshot} of {!tree} — the compact node
    snapshot persisted by checkpoint rows. Forces the tree. *)

val find : t -> Zkflow_netflow.Flowkey.t -> (int * entry) option
(** Index and entry for a flow key. *)

val words : t -> int array
(** All entries as the flat guest word stream. *)

val apply_batch : t -> Zkflow_netflow.Record.t array -> t
(** The host-side reference aggregation (sum policy): fold a batch of
    RLog records in order — existing flows accumulate, new flows
    append. The guest must compute exactly this. The result's Merkle
    tree is maintained incrementally from this state's tree (dirty
    leaves only; see {!Zkflow_merkle.Incremental}) — bit-identical to
    the from-scratch build, O(k·log n) instead of O(n) per batch. *)

val apply_batch_rebuild : t -> Zkflow_netflow.Record.t array -> t
(** Same aggregation, but the result's tree is rebuilt from scratch on
    first use. The reference arm of the differential tests and the
    [incr] bench ablation; roots must match {!apply_batch} exactly. *)

val empty_root : Zkflow_hash.Digest32.t
(** Root of the empty CLog. *)
