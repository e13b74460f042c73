(** Dense binary Merkle trees over 32-byte digests.

    The tree over [n] leaves is padded to the next power of two with a
    distinguished empty-leaf digest, so roots are well-defined for any
    [n ≥ 0]. Leaves are hashed with a leaf-domain tag before entering
    the tree, preventing leaf/node confusion attacks. This is the
    authenticated structure over CLog entries from Section 4.1 of the
    paper. *)

type t
(** An immutable Merkle tree retaining all levels (O(n) storage). *)

val next_pow2 : int -> int
(** Smallest power of two ≥ [max 1 n]. Raises [Invalid_argument] for
    [n > max_int / 2], where the doubling would overflow. *)

val leaf_hash : bytes -> Zkflow_hash.Digest32.t
(** {!Proof.leaf_hash}: SHA-256 of ["zkflow.lf.v1" ‖ data]. *)

val empty_leaf : Zkflow_hash.Digest32.t
(** The digest used for padding positions beyond the last real leaf. *)

val of_leaves : node:Proof.node -> Zkflow_util.Column.t -> t
(** [of_leaves ~node col] builds the tree over the {!leaf_hash} of each
    leaf of [col] under the node rule [node], hashing the column's
    leaves straight into the tree's level buffer. A caller holding a
    [bytes array] builds its column with
    {!Zkflow_util.Column.of_array}.

    Every build applies the equal-neighbour rule: a slot whose input
    equals its left neighbour's (the leaf's bytes at the leaf level,
    the 64 child bytes above it) copies the neighbour's digest instead
    of hashing. All-padding subtrees and runs of repeated leaves therefore
    cost one hash per run. The rule depends only on the inputs, so
    roots and the ["merkle.nodes_hashed"] / ["merkle.nodes_copied"]
    counts (which sum to the [n + P − 1] slots of [n] leaves padded to
    [P]) are the same for every job count. *)

val of_leaf_hashes : node:Proof.node -> Zkflow_hash.Digest32.t array -> t
(** Builds the tree over already-hashed leaves (e.g. recomputed inside
    the zkVM guest). *)

val root : t -> Zkflow_hash.Digest32.t
(** The Merkle root; the root of the empty tree is
    [Digest32.zero]-independent but fixed. *)

val size : t -> int
(** Number of real (unpadded) leaves. *)

val depth : t -> int
(** Height of the padded tree; 0 for trees of ≤ 1 leaf. *)

val leaf : t -> int -> Zkflow_hash.Digest32.t
(** [leaf t i] is the (hashed) leaf at index [i]. Raises
    [Invalid_argument] when out of range. *)

val prove : t -> int -> Proof.t
(** [prove t i] is the inclusion proof for leaf [i]. *)

val node : t -> level:int -> int -> Zkflow_hash.Digest32.t
(** [node t ~level i] is the digest at position [i] of the given level
    of the padded tree (level 0 = leaves, level [depth t] = root).
    Raises [Invalid_argument] when out of range. *)

val blit_node : t -> level:int -> int -> bytes -> int -> unit
(** [blit_node t ~level i dst pos] copies {!node}[ t ~level i] into
    [dst.[pos .. pos+31]] without allocating a digest. *)
