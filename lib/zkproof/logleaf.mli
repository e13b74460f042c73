(** The access-log leaf layout (seal v5).

    The time-ordered, address-sorted and grand-product columns hold
    {!per_leaf} consecutive access-log entries per Merkle leaf: entry
    [j] lies in leaf [j / per_leaf], and the last leaf holds the 1 to
    {!per_leaf} entries left over. A time or sorted leaf is its
    entries' {!Zkflow_zkvm.Trace.encode_log} leaves back to back; a
    z leaf is its entries' 16-byte {!Memcheck.encode_z} leaves back to
    back. The rows and jacc columns keep one row per leaf.

    This module is the only place the layout is spelled: the prover
    packs with {!pack} and {!gather}, both sides map the entry index
    sets {!Fs.opened} derives to leaf sets with {!leaf_set}, and the
    verifier reads the opened entries with {!unpack_mem} and
    {!unpack_z}. *)

val per_leaf : int
(** [4]: access-log entries per leaf. *)

val count : int -> int
(** [count n] is the number of leaves over [n] entries, ⌈n / per_leaf⌉. *)

val leaf_of : int -> int
(** [leaf_of j] is the leaf that holds entry [j]: [j / per_leaf]. *)

val leaf_set : int array -> int array
(** [leaf_set entries] maps an ascending set of entry indices to the
    ascending set of leaves that hold them, each once: the leaves a
    column opens for the entries {!Fs.opened} names. *)

val pack : Zkflow_util.Column.t -> Zkflow_util.Column.t
(** [pack entries] is the leaf column over a column of one entry per
    leaf: every {!per_leaf}th offset of [entries], over the same
    payload buffer, so packing copies no byte. *)

val gather : Zkflow_util.Column.t -> int array -> Zkflow_util.Column.t
(** [gather entries perm] is the leaf column over entries [perm.(0)],
    [perm.(1)], ... of [entries]: the sorted log's leaves, copied from
    the time-ordered log's encoded entries. Copying the encoded bytes
    takes about half the time of encoding the entries again from the
    int log in [perm] order, at the ingest shape and at 295,635
    entries alike. Raises [Invalid_argument] when an index is outside
    [entries]. *)

val unpack_mem :
  n:int -> int array -> bytes array -> Zkflow_zkvm.Trace.log * string array
(** [unpack_mem ~n entries opened] decodes entries [entries] (an
    ascending index set) of a time or sorted column of [n] entries from
    [opened], the leaves of [leaf_set entries] in order. The entry at
    rank [r] of [entries] is entry [r] of the log
    ({!Zkflow_zkvm.Trace.read_mem_into} writes it) with refusal [r],
    [""] when it decoded; the leaf's other entries are read past, not kept.
    A leaf whose varints do not end on an entry boundary is refused
    whole with ["trailing bytes"], one with another entry count than
    its place implies ({!per_leaf}, or the rest for the last leaf)
    with ["k entries where m expected"], and one with a
    malformed varint with its message; otherwise an entry is refused
    alone when it leaves the domain
    {!Zkflow_zkvm.Trace.read_mem_into} checks. A refused leaf refuses
    each of its entries in [entries]. *)

val unpack_z : n:int -> int array -> bytes array -> int array * string array
(** [unpack_z ~n entries opened] is {!unpack_mem} for the
    grand-product column: four coordinates per entry in one int array
    ({!Memcheck.decode_z_at}'s layout). A leaf that is not whole
    16-byte entries is refused with ["trailing bytes"], a wrong entry
    count as above, and an entry alone when a coordinate is not
    canonical. *)
