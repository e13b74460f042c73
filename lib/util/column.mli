(** Flat leaf columns: [n] byte strings stored back to back in one
    buffer, with one offset index.

    Leaf [i] is [data.[off.(i) .. off.(i+1) - 1]], so [off] holds
    [n + 1] offsets. A committed trace column (rows, access log,
    journal accumulator, grand products) is one of these from its
    encoder to its Merkle tree and its openings: one allocation for
    the payloads instead of one [bytes] per leaf.

    The fields are plain so encoders can fill a column in place; the
    consumers that read a column with unchecked loads (the batch leaf
    kernel) bound its offsets themselves. The accessors below check
    the index and read through the offsets with the ordinary checked
    primitives. *)

type t = { data : bytes; off : int array }

val length : t -> int
(** The number of leaves, [Array.length off - 1]. *)

val leaf : t -> int -> bytes
(** [leaf c i] is a fresh copy of leaf [i]. *)

val equal_leaves : t -> int -> int -> bool
(** [equal_leaves c i j] is whether leaves [i] and [j] hold the same
    bytes; it allocates nothing. *)

val alloc : int -> size:(int -> int) -> t
(** [alloc n ~size] is a column of [n] leaves, leaf [i] [size i] bytes
    long: the offsets are set by one prefix sum over the sizes, and the
    payload bytes are left for the caller to write, each leaf at its
    own offset. Raises [Invalid_argument] on a negative size. *)

val of_array : bytes array -> t
(** [of_array leaves] copies the leaves into one column. *)

val pick : t -> int array -> bytes array
(** [pick c idx] copies out leaf [idx.(k)] for each [k]: the opened
    leaves of a seal column. *)
