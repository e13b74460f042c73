(** Offline memory checking (Blum et al. style) over the unified
    register/RAM access log.

    The prover commits to the log twice — in execution (time) order and
    sorted by (address, time) — plus a grand-product column per copy
    that accumulates ∏ (α − fingerprint(entry)) over the extension
    field; the two columns share one tree, one leaf per position.
    Equal final products certify (w.h.p. over the Fiat–Shamir α, β)
    that the two logs hold the same multiset; local adjacency
    rules on the sorted copy then give read-after-write consistency and
    zero-initialised memory. *)

val sort : Zkflow_zkvm.Trace.mem_entry array -> Zkflow_zkvm.Trace.mem_entry array
(** A copy sorted by [Trace.mem_order]. *)

val sort_with_perm :
  Zkflow_zkvm.Trace.mem_entry array ->
  Zkflow_zkvm.Trace.mem_entry array * int array
(** [sort] plus the permutation applied: [(sorted, perm)] with
    [sorted.(j) = entries.(perm.(j))]. Ties (byte-identical entries)
    break by original index, so [perm] is deterministic — this lets the
    prover derive the sorted log's leaf bytes and leaf hashes by
    permuting the time-ordered ones instead of re-encoding and
    re-hashing. *)

val term :
  alpha:Zkflow_field.Fp2.t ->
  beta:Zkflow_field.Fp2.t ->
  Zkflow_zkvm.Trace.mem_entry ->
  Zkflow_field.Fp2.t
(** The entry fingerprint α − (addr + β·time + β²·lo16(v) + β³·hi16(v)
    + β⁴·write). The 32-bit value is split so every coordinate fits the
    BabyBear field. *)

val products :
  alpha:Zkflow_field.Fp2.t ->
  beta:Zkflow_field.Fp2.t ->
  Zkflow_zkvm.Trace.mem_entry array ->
  Zkflow_field.Fp2.t array
(** Running products: element [i] is ∏_{j ≤ i} term(entry_j). *)

val encode_z : time:Zkflow_field.Fp2.t -> sorted:Zkflow_field.Fp2.t -> bytes
(** The 16-byte leaf of the shared grand-product tree: the time
    column's value then the sorted column's, each in the canonical
    8-byte {!Zkflow_field.Fp2.to_bytes} form. *)

val decode_z :
  bytes -> (Zkflow_field.Fp2.t * Zkflow_field.Fp2.t, string) result
(** Inverse of {!encode_z}, as [(time, sorted)]. Rejects a leaf that
    is not 16 bytes or whose halves are not both canonical. *)

val check_first : Zkflow_zkvm.Trace.mem_entry -> (unit, string) result
(** The first sorted entry: a read must see 0 (memory starts zeroed). *)

val check_adjacent :
  Zkflow_zkvm.Trace.mem_entry ->
  Zkflow_zkvm.Trace.mem_entry ->
  (unit, string) result
(** Sorted-order adjacency: non-decreasing keys; a read either repeats
    the previous value of the same address or sees 0 on a fresh
    address. *)
