(** Offline memory checking (Blum et al. style) over the unified
    register/RAM access log.

    The prover commits to the log twice — in execution (time) order and
    sorted by (address, time) — plus a grand-product column per copy
    that accumulates ∏ (α − fingerprint(entry)) over the extension
    field; the two columns share one tree, one entry per position
    ({!Logleaf} packs four per leaf).
    Equal final products certify (w.h.p. over the Fiat–Shamir α, β)
    that the two logs hold the same multiset; local adjacency
    rules on the sorted copy then give read-after-write consistency and
    zero-initialised memory. *)

val sort_perm : Zkflow_zkvm.Trace.log -> (int array, string) result
(** The permutation that sorts a time-ordered log by
    {!Zkflow_zkvm.Trace.mem_order}, ties kept in log order: the sorted
    log is entry [perm.(0)], [perm.(1)], ... of the log.

    It is a stable radix sort on the addresses alone (read once into
    one int array; 11-bit digits, three passes for the register
    window), followed by one scan
    ({!Zkflow_zkvm.Trace.first_unordered}) that requires [mem_order]
    to be non-decreasing along [perm]. That holds
    when each address's accesses appear in (time, read-before-write)
    order, as the machine logs them, and then [perm] is exactly the
    (mem_order, index) order. [Error] names the first pair that breaks
    it; there is no fallback sort. *)

val term :
  alpha:Zkflow_field.Fp2.t ->
  beta:Zkflow_field.Fp2.t ->
  Zkflow_zkvm.Trace.mem_entry ->
  Zkflow_field.Fp2.t
(** The entry fingerprint α − (addr + β·time + β²·lo16(v) + β³·hi16(v)
    + β⁴·write). The 32-bit value is split so every coordinate fits the
    BabyBear field. *)

val terms_of_ints :
  alpha:Zkflow_field.Fp2.t -> beta:Zkflow_field.Fp2.t -> Zkflow_zkvm.Trace.log -> int array
(** Every entry's {!term}, once, as unboxed coordinates: c0 of entry
    [i] at [2i], c1 at [2i + 1], each below p. The prover's z column
    and the verifier's opened entries both use it. *)

val link_holds : z0:int -> z1:int -> t0:int -> t1:int -> next0:int -> next1:int -> bool
(** [link_holds ~z0 ~z1 ~t0 ~t1 ~next0 ~next1] is whether one step of a
    grand product holds over unboxed coordinates: (next0, next1) =
    (z0, z1) · (t0, t1) in the extension field. Every coordinate must
    be below p, as {!decode_z_at} and {!terms_of_ints} leave them. *)

val z_leaves :
  alpha:Zkflow_field.Fp2.t ->
  beta:Zkflow_field.Fp2.t ->
  Zkflow_zkvm.Trace.log ->
  int array ->
  Zkflow_util.Column.t
(** [z_leaves ~alpha ~beta log perm] is the grand-product column pair
    as one column of 16-byte {!encode_z} entries: entry [j] holds
    ∏_{i ≤ j} term(entry i) and ∏_{i ≤ j} term(entry perm.(i)). Each
    entry's {!term} is computed once by {!terms_of_ints}; both products
    then run over those terms, the sorted one through [perm]. It equals
    the {!term} fold for every entry. Raises [Invalid_argument] when
    the lengths differ. *)

val z_bytes : int
(** [16]: the bytes of one {!encode_z} entry. *)

val encode_z : time:Zkflow_field.Fp2.t -> sorted:Zkflow_field.Fp2.t -> bytes
(** The 16-byte entry of the shared grand-product column: the time
    column's value then the sorted column's, each in the canonical
    8-byte {!Zkflow_field.Fp2.to_bytes} form. A leaf of the z tree is
    up to four of them ({!Logleaf}). *)

val decode_z :
  bytes -> (Zkflow_field.Fp2.t * Zkflow_field.Fp2.t, string) result
(** Inverse of {!encode_z}, as [(time, sorted)]. Rejects an entry that
    is not 16 bytes or whose halves are not both canonical. *)

val decode_z_at : bytes -> int -> int array -> int -> (unit, string) result
(** [decode_z_at b off dst r] is {!decode_z} of the 16 bytes at [off]
    without the boxes: it writes the time column's two coordinates
    and then the sorted column's to [dst.(4r) .. dst.(4r + 3)], and
    refuses a non-canonical half as {!decode_z} does. The caller
    bounds [off]. *)

val check_time : n_rows:int -> Zkflow_zkvm.Trace.mem_entry -> (unit, string) result
(** An opened entry's time must lie in [\[0, n_rows)]. With
    {!Zkflow_zkvm.Trace.decode_mem}'s address and value bounds and
    [n_rows < p], every coordinate of the fingerprint is then below p,
    so distinct entries cannot share a {!term}: a write at time t + p
    would otherwise pass for the write at t. *)

val check_first : Zkflow_zkvm.Trace.mem_entry -> (unit, string) result
(** The first sorted entry: a read must see 0 (memory starts zeroed). *)

val check_adjacent :
  Zkflow_zkvm.Trace.mem_entry ->
  Zkflow_zkvm.Trace.mem_entry ->
  (unit, string) result
(** Sorted-order adjacency: non-decreasing keys; a read either repeats
    the previous value of the same address or sees 0 on a fresh
    address. *)
