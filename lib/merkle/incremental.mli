(** Incremental maintenance of a dense Merkle tree.

    A mutable node store over the same flat-buffer layout as {!Tree}:
    all interior hashes persist between batches, leaf updates and
    appends mark their positions dirty, and {!commit} re-hashes only
    the merged dirty root-paths — a batch of [k] updates over [n]
    leaves costs O(k·log n) hashes instead of the O(n) full rebuild.
    Sibling dirty paths merge: the frontier at each level is the
    deduplicated parent image of the level below, so shared ancestors
    are hashed once per batch.

    Buffers are shared with committed trees copy-on-write: {!of_tree}
    adopts a tree's buffer without copying, the first mutation copies,
    and {!commit} freezes the current buffer into an immutable
    {!Tree.t} (subsequent mutations copy again). Committed trees are
    therefore never mutated, and roots are bit-identical to a
    from-scratch {!Tree.of_leaf_hashes} build over the same leaves
    under the CLog node rule, [Sha256.digest64], the only rule it
    hashes with.

    Instrumented under [lib/obs]: each flush records a
    ["merkle.incr_update"] span and advances the
    ["merkle.nodes_rehashed"] / ["merkle.nodes_reused"] counters. *)

type t

val create : unit -> t
(** An empty store (size 0). *)

val of_tree : Tree.t -> t
(** Adopt an existing tree's nodes (no copy until the first
    mutation). The tree must have been built under
    [Sha256.digest64]. *)

val size : t -> int
(** Current (unpadded) leaf count. *)

val set_leaf : t -> int -> Zkflow_hash.Digest32.t -> unit
(** [set_leaf t i d] replaces the leaf digest at [i] and marks its
    path dirty; writing the digest already present is a no-op. Raises
    [Invalid_argument] when [i] is out of range. *)

val append : t -> Zkflow_hash.Digest32.t -> unit
(** Append a leaf at index [size t], doubling the padded width when
    full (the old tree becomes the left subtree; the right half is
    filled with precomputed empty-subtree digests). *)

val commit : t -> Tree.t
(** Flush the dirty paths and freeze the store into an immutable tree
    sharing the buffer. The store remains usable; the next mutation
    copies. *)

val root : t -> Zkflow_hash.Digest32.t
(** Flush and return the current root without freezing a tree. *)

type stats = { rehashed : int; reused : int }

val last_stats : t -> stats
(** Node economics of the most recent flush: interior nodes re-hashed
    vs nodes (interior and leaves) carried over unchanged. *)
