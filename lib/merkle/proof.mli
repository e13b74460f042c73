(** Merkle inclusion proofs.

    A proof carries the leaf index and the sibling digests from leaf
    level to the root; the index's bits determine on which side each
    sibling lies. *)

type t = { index : int; siblings : Zkflow_hash.Digest32.t array }

type node = Zkflow_hash.Sha256.node
(** A node rule: how the parent digest of 64 child bytes (left child
    first) is hashed. The CLog tree and every other structure a zkVM
    guest recomputes use [Sha256.digest64]; the proof system's trace
    commitments use [Sha256.node64]. Every build, path climb and
    verification below takes the rule, so one loop serves both. *)

val leaf_hash : bytes -> Zkflow_hash.Digest32.t
(** [leaf_hash data] is SHA-256 of ["zkflow.lf.v1" ‖ data]: the leaf
    rule of every {!Tree}. The 12-byte tag is word-aligned so zkVM
    guests can reproduce it. *)

val leaf_hash_into :
  Zkflow_hash.Sha256.ctx -> bytes -> dst:bytes -> dst_pos:int -> unit
(** [leaf_hash_into ctx data ~dst ~dst_pos] writes [leaf_hash data]
    into [dst.[dst_pos .. dst_pos+31]] without allocating. [ctx] is
    working storage, reset first; it must not be shared between
    domains. *)

val leaves_into :
  Zkflow_hash.Sha256.ctx -> Zkflow_util.Column.t -> dst:bytes -> lo:int -> hi:int -> int
(** [leaves_into ctx col ~dst ~lo ~hi] is
    {!Zkflow_hash.Sha256.leaves_into} with the leaf rule's tag as the
    prefix: slot [i] of [dst] gets [leaf_hash] of leaf [i] of [col] for
    [i] in [\[lo, hi)], copying slot [i - 1] when leaf [i] holds the
    same bytes as leaf [i - 1]. Returns the slots hashed. *)

val leaves_array_into :
  Zkflow_hash.Sha256.ctx -> bytes array -> dst:bytes -> lo:int -> hi:int -> int
(** [leaves_array_into ctx leaves ~dst ~lo ~hi] is {!leaves_into} over
    [Column.of_array leaves] without building that column
    ({!Zkflow_hash.Sha256.leaves_array_into}). *)

val compute_root : node:node -> t -> Zkflow_hash.Digest32.t -> Zkflow_hash.Digest32.t
(** [compute_root ~node proof leaf_hash] folds the path under [node]
    and returns the implied root. *)

val verify :
  node:node ->
  root:Zkflow_hash.Digest32.t ->
  leaf_hash:Zkflow_hash.Digest32.t ->
  t ->
  bool
(** [verify ~node ~root ~leaf_hash proof] checks the implied root
    matches. *)

val verify_data : node:node -> root:Zkflow_hash.Digest32.t -> bytes -> t -> bool
(** [verify_data ~node ~root data proof] hashes [data] with
    {!leaf_hash} first. *)

val depth : t -> int
(** Path length. *)
