(** Receipt generation: execute a guest and argue its trace.

    [prove] runs the program with tracing on, Merkle-commits the trace
    rows, the time-ordered and address-sorted access logs (four
    entries per leaf, {!Logleaf}) and the journal accumulator, derives
    the memory-check challenges and the spot-check positions by
    Fiat–Shamir, and assembles the openings into a {!Receipt.t}.

    The prover reads the run's trace as {!Zkflow_zkvm.Trace}'s int
    columns throughout: the rows and log columns are encoded from
    them, the sort, the journal accumulator and the opened rows' access
    spans read their fields in place, and the grand products take
    their terms from {!Memcheck.terms_of_ints}, the verifier's
    fingerprint function. No per-row or per-access record is built.

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

    The sorted log's leaves are gathered from the time-ordered log's
    encoded entries in sorted order ({!Logleaf.gather}), so the log is
    encoded once. *)

