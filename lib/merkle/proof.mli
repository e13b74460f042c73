(** Merkle inclusion proofs.

    A proof carries the leaf index and the sibling digests from leaf
    level to the root; the index's bits determine on which side each
    sibling lies. *)

type t = { index : int; siblings : Zkflow_hash.Digest32.t array }

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

val compute_root : t -> Zkflow_hash.Digest32.t -> Zkflow_hash.Digest32.t
(** [compute_root proof leaf_hash] folds the path and returns the
    implied root. *)

val verify :
  root:Zkflow_hash.Digest32.t -> leaf_hash:Zkflow_hash.Digest32.t -> t -> bool
(** [verify ~root ~leaf_hash proof] checks the implied root matches. *)

val verify_data : root:Zkflow_hash.Digest32.t -> bytes -> t -> bool
(** [verify_data ~root data proof] hashes [data] with {!leaf_hash}
    first. *)

val verify_data_all : root:Zkflow_hash.Digest32.t -> (bytes * t) array -> bool
(** [verify_data_all ~root openings] is
    [Array.for_all (fun (data, proof) -> verify_data ~root data proof)
    openings], computed along shared paths: in index order, each path
    is hashed only up to the level below the one where it joins the
    previous path. There the two paths' nodes must be each other's
    siblings, and every sibling above must equal the previous path's.
    An opening that fails that test is checked alone, so the result
    never rests on collision resistance. *)

val depth : t -> int
(** Path length. *)

val encode : t -> bytes
(** Wire encoding: varint index, varint count, then siblings. *)

val decode : bytes -> int -> (t * int, string) result
(** [decode b off] parses a proof, returning it and the next offset. *)
