(** Sparse Merkle tree: an authenticated key → value map.

    Keys are arbitrary byte strings, mapped to a fixed-depth path by
    hashing; absent keys implicitly hold a distinguished empty leaf, so
    the tree supports both membership and non-membership proofs with
    O(depth) work and storage proportional to the live key set.

    No pipeline code uses it: CLogs are dense {!Tree}s, rebuilt every
    round as the aggregation guest rebuilds them. It backs the §7
    Merkle-maintenance row of [bench ablations], which prices an
    update that touches O(depth) nodes against that rebuild (the
    in-zkVM Merkle cost that dominates the paper's Figure 4). *)

type t
(** A mutable sparse Merkle tree. *)

val depth : int
(** Fixed path depth (56: the first 56 bits of SHA-256 of the key). *)

val create : unit -> t
(** An empty tree. *)

val empty_root : Zkflow_hash.Digest32.t
(** Root of the empty tree. *)

val root : t -> Zkflow_hash.Digest32.t

val cardinal : t -> int
(** Number of live keys. *)

val set : t -> key:bytes -> bytes -> unit
(** [set t ~key v] binds [key] to value [v]. *)

val remove : t -> key:bytes -> unit
(** [remove t ~key] restores the empty leaf for [key]. *)

val find : t -> key:bytes -> bytes option
(** [find t ~key] is the stored value, if any. *)

val prove : t -> key:bytes -> Proof.t
(** [prove t ~key] is the Merkle path for [key]'s position — a
    membership proof when the key is bound, a non-membership proof
    (against {!empty_leaf_hash}) otherwise. *)

val empty_leaf_hash : Zkflow_hash.Digest32.t
(** The digest stored at unbound positions. *)

val leaf_hash_of_value : bytes -> Zkflow_hash.Digest32.t
(** The digest stored for a bound value. *)

val verify_member :
  root:Zkflow_hash.Digest32.t -> key:bytes -> value:bytes -> Proof.t -> bool
(** Checks that [key ↦ value] under [root]. Also checks the proof is
    for [key]'s path. *)

val verify_absent : root:Zkflow_hash.Digest32.t -> key:bytes -> Proof.t -> bool
(** Checks that [key] is unbound under [root]. *)

val key_index : bytes -> int
(** The 56-bit path index for a key (exposed for the proof layer). *)

val fold : (bytes -> bytes -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] visits live bindings in unspecified order. *)
