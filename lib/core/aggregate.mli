(** Host-side driver for the aggregation rounds of Algorithm 1.

    Each round takes the previous CLog state and one integrity window's
    record batches (with their published commitments), runs the
    aggregation guest under the prover, and returns the new state plus
    the receipt. The host keeps a mirror of the CLog (it is the
    operator's own data) and cross-checks the guest's journal against
    it — any divergence is a bug, never silently accepted. *)

type round = {
  receipt : Zkflow_zkproof.Receipt.t;
  journal : Guests.agg_journal;
  clog : Clog.t;          (** post-round state *)
  cycles : int;           (** guest cycles (the zkVM cost driver) *)
  execute_s : float;      (** guest execution wall time *)
  prove_s : float;        (** proof generation wall time *)
  restored : bool;        (** [true] when read back from the
                              checkpoint journal rather than proved in
                              this process (timings read 0) *)
}

val execute :
  prev:Clog.t ->
  (Zkflow_hash.Digest32.t * Zkflow_netflow.Record.t array) list ->
  (Zkflow_zkvm.Machine.result, string) result
(** Run the guest without proving (bench separation; also how a
    prover pre-checks a window before paying for proving). *)

val prove_round :
  ?params:Zkflow_zkproof.Params.t ->
  prev:Clog.t ->
  (Zkflow_hash.Digest32.t * Zkflow_netflow.Record.t array) list ->
  (round, string) result
(** Full round: execute, prove, parse and cross-check the journal.
    Fails when a batch does not match its claimed commitment (guest
    exit 2 — the Figure 3 tampering case), when capacity is exceeded,
    or when proving fails. *)

val shard_records :
  shards:int ->
  Zkflow_netflow.Record.t array ->
  Zkflow_netflow.Record.t array array
(** Partition records by flow-key hash into [shards] disjoint groups
    (records of one flow always land in the same shard). *)

val prove_sharded :
  ?params:Zkflow_zkproof.Params.t ->
  prev_shards:Clog.t array ->
  shards:int ->
  Zkflow_netflow.Record.t array ->
  (round array, string) result
(** The paper's "partition by flow ID" parallelization: each shard is
    an {e independent} CLog with its own chain of rounds, so the
    [shards] proofs have no data dependency — on [p] machines the
    wall-clock is the slowest shard, not the sum. Queries fan out over
    the shard roots and sum (all our aggregation ops distribute).
    [prev_shards] must have length [shards] (use
    [Array.make shards Clog.empty] for the first window). Each shard
    batch is committed and checked like a router batch. *)
