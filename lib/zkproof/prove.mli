(** Receipt generation: execute a guest and argue its trace.

    [prove] runs the program with tracing on, Merkle-commits the trace
    rows, the time-ordered and address-sorted access logs and the
    journal accumulator, derives the memory-check challenges and the
    spot-check positions by Fiat–Shamir, and assembles the openings
    into a {!Receipt.t}.

    Proving cost is O(cycles · log cycles) hashing — the analogue of
    the zkVM proving cost the paper measures in Figure 4. *)

val prove :
  ?params:Params.t ->
  Zkflow_zkvm.Program.t ->
  input:int array ->
  (Receipt.t * Zkflow_zkvm.Machine.result, string) result
(** Returns the receipt and the underlying run (for the journal and
    cycle counts). [Error _] when the guest traps, or when the guest
    exits non-zero — a non-zero exit is an in-guest integrity-check
    failure (Figure 3's tampering case), for which no attestation must
    be issuable. *)

val prove_result :
  ?params:Params.t ->
  Zkflow_zkvm.Program.t ->
  Zkflow_zkvm.Machine.result ->
  (Receipt.t, string) result
(** Builds a receipt from an existing traced run (must have been
    produced with [~trace:true]). Used to separate execution time from
    proving time in benchmarks.

    The memory check needs each address's accesses in the log in
    (time, read-before-write) order, as {!Zkflow_zkvm.Machine.run}
    logs them (see {!Memcheck.sort_perm}). A log that breaks this is
    refused with an [Error] naming the pair, before any hashing.

    The phase-1 trace commitments (row / access-log / journal trees)
    are memoised in a one-slot cache keyed on the physical identity of
    the run's trace arrays plus the image id: proving the same run
    again — e.g. re-deriving a receipt with different parameters, or a
    chaos re-prove after a crash — reuses the trees instead of
    re-hashing the whole trace. The cache holds each column as one flat
    {!Zkflow_util.Column.t} next to its tree; a miss drops the previous
    entry before building the new one. Counters
    [zkproof.commit_cache.hits]/[.misses] record the traffic and
    [zkproof.leaf_hashes_reused] the sorted-log leaves derived by
    permutation instead of hashing. *)

val clear_commit_cache : unit -> unit
(** Drop the phase-1 commitment cache (benchmarks call this between
    arms so timings don't alias). *)
