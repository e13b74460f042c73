(** Batched Merkle inclusion proofs.

    One multiproof authenticates several leaves of one tree with a
    single deduplicated set of helper digests: the nodes off the union
    of the leaves' root paths. The flows readout proves a set of CLog
    entries with one (under {!Zkflow_hash.Sha256.digest64}), and the
    receipt seal proves each trace-commitment column's openings with
    one (under {!Zkflow_hash.Sha256.node64}); one climb serves both
    rules.

    The helper order is fixed by the index set: level by level from the
    leaves, and within a level in ascending position, a known node
    whose sibling is not known takes the next helper. So the helper
    count is a function of the index set and the tree depth alone
    ({!helper_count}), and a verifier can check it before hashing. *)

type node = Zkflow_hash.Sha256.node

type t = {
  depth : int;         (** depth of the padded tree, as {!Tree.depth} *)
  indices : int array; (** the proven leaf positions, strictly ascending *)
  helpers : bytes;     (** the helper digests, 32 bytes each, in climb order *)
}

val prove : Tree.t -> int array -> t
(** [prove tree indices] reads the helpers for [indices] out of
    [tree]. Raises [Invalid_argument] on an empty index set, on
    indices that repeat or are not ascending, or on one outside
    [\[0, Tree.size tree)]. *)

val helper_count : depth:int -> int array -> int
(** The number of helpers a multiproof for [indices] in a tree of
    depth [depth] carries. Raises [Invalid_argument] on an index set
    {!compute_root} would refuse. *)

val compute_root : node:node -> t -> bytes -> (Zkflow_hash.Digest32.t, string) result
(** [compute_root ~node t leaves] climbs from the leaf digests
    [leaves] (32 bytes each, aligned with [t.indices]) to the implied
    root under [node], hashing each distinct node once in one slot
    buffer. [Error _], without raising and before any hashing, when
    the index set is empty, repeats, is not ascending or leaves the
    tree, when [leaves] does not hold one digest per index, or when
    [t.helpers] does not hold exactly {!helper_count} digests. *)

type shape
(** An index set checked against a tree depth, with its helper count:
    what {!compute_root} checks before hashing, done once. *)

val shape : depth:int -> int array -> (shape, string) result
(** [shape ~depth indices] refuses what {!compute_root} refuses of an
    index set, with the same message, and counts its helpers. The
    shape keeps [indices] itself, which must not change after. *)

val shape_helpers : shape -> int
(** The helper count of the shape's index set: {!helper_count}. *)

val root_of_shape :
  node:node -> shape -> helpers:bytes -> bytes -> (Zkflow_hash.Digest32.t, string) result
(** [root_of_shape ~node s ~helpers work] is {!compute_root} of the
    multiproof with [s]'s depth, indices and [helpers], for a caller
    that already holds the shape and has laid the k leaf digests in the
    first k 32-byte slots of [work]. The climb runs in [work], which
    must hold at least 3k slots and is overwritten, so one buffer
    serves several multiproofs in turn. Before it climbs it checks only
    [work]'s size and the helper byte length. *)

val verify : node:node -> root:Zkflow_hash.Digest32.t -> t -> bytes -> bool
(** [verify ~node ~root t leaves] checks that {!compute_root} reaches
    [root]. *)

val leaf_digests : Zkflow_hash.Digest32.t list -> bytes
(** The digests laid end to end, as {!compute_root} takes them. *)

val depth_of_size : int -> int
(** The depth of the padded tree over [n] leaves, as {!Tree.depth}
    of a tree built over them; defined for every [n ≥ 0] without
    overflow, so a verifier can take it from an untrusted count. *)

val encode : t -> bytes
(** Varint depth, varint index count, the indices, then the helpers
    as one length-prefixed blob. *)

val decode : bytes -> int -> (t * int, string) result
(** [decode b off] parses an encoding, returning it and the next
    offset. Refuses a depth above 64 or more helpers than
    indices × depth before allocating them. *)
