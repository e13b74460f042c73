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

val root : t -> Zkflow_hash.Digest32.t
(** Merkle root over the entries in order (empty-tree root for
    {!empty}). *)

val tree : t -> Zkflow_merkle.Tree.t
(** The full tree, for inclusion proofs about individual flows. *)

val node : Zkflow_merkle.Proof.node
(** The tree's node rule, {!Zkflow_hash.Sha256.digest64}, the one the
    aggregation guest recomputes; readout multiproofs are checked
    under it. *)

val find : t -> Zkflow_netflow.Flowkey.t -> (int * entry) option
(** Index and entry for a flow key. *)

val words : t -> int array
(** All entries as the flat guest word stream. *)

val apply_batch : t -> Zkflow_netflow.Record.t array -> t
(** The host-side reference aggregation (sum policy): fold a batch of
    RLog records in order — existing flows accumulate, new flows
    append. The guest must compute exactly this. The result's Merkle
    tree is built from scratch on first use, as the guest rebuilds it
    every round. *)

val apply_batch_rebuild : t -> Zkflow_netflow.Record.t array -> t
(** {!apply_batch} under its former name, kept for callers that name
    the rebuild explicitly. *)

val empty_root : Zkflow_hash.Digest32.t
(** Root of the empty CLog. *)
