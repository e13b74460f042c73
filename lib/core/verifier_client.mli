(** The client-side verifier (Figure 1, right half).

    A client holds only public material — the two guest image IDs, the
    commitment {!Zkflow_commitlog.Board}, and the receipts the operator
    hands over. It never sees RLogs or CLogs. Verification checks, per
    Section 4.2:

    + every aggregation receipt is cryptographically valid and runs the
      pinned aggregation guest;
    + the rounds chain: round k's [prev_root] equals round k−1's
      [new_root], starting from the empty root;
    + every router digest a round consumed equals the commitment that
      router published on the board for that epoch;
    + a query receipt is valid, runs the pinned query guest, and its
      journal root equals the latest aggregated root — then its result
      can be trusted. *)

type verified_chain = {
  final_root : Zkflow_hash.Digest32.t;
  round_count : int;
}

val verify_round :
  ?expected_prev:Zkflow_hash.Digest32.t ->
  ?round:int ->
  ?routers:int list ->
  board:Zkflow_commitlog.Board.t ->
  epoch:int ->
  Zkflow_zkproof.Receipt.t ->
  (Guests.agg_journal, string) result
(** Verify one aggregation receipt: proof validity, image ID, board
    cross-check for [epoch], and (when given) the [expected_prev]
    linkage. [?routers] is the router subset a degraded round claims
    to cover (default: every router on the board) — the claim is
    checked digest by digest against the board, so it can only name
    routers that really published. Each verdict is also a
    flight-recorder event on the [verifier] track —
    ["verifier.round.accept"], or ["verifier.reject"] naming the
    failing check ([proof], [journal], [chain], [router_set],
    [board_lookup], [digest_match], [arity]). [?round] is the chain
    index carried on those events. *)

val verify_chain :
  board:Zkflow_commitlog.Board.t ->
  (int * Zkflow_zkproof.Receipt.t) list ->
  (verified_chain, string) result
(** Verify a whole history of [(epoch, receipt)] rounds, oldest first,
    threading the root linkage from the empty CLog. *)

type covered_round = {
  epoch : int;
  routers : int list;   (** the (claimed) covered subset, ascending *)
  degraded : bool;
  heal : bool;
  receipt : Zkflow_zkproof.Receipt.t;
}
(** One round of a possibly-degraded history, as handed over by the
    operator: the receipt plus its coverage claim
    (cf. {!Prover_service.coverage}). *)

type coverage_report = {
  final_root : Zkflow_hash.Digest32.t;
  round_count : int;
  complete : bool;  (** no open gaps — the board is fully covered *)
}

val verify_coverage :
  board:Zkflow_commitlog.Board.t ->
  gaps:(int * int) list ->
  covered_round list ->
  (coverage_report, string) result
(** Verify a degraded history end to end from public data: each round
    against its claimed router subset (chained from the empty root),
    no [(router, epoch)] pair covered twice, no pair claimed both
    covered and an open gap — and, the safety core, {e no silent
    loss}: every commitment on the board is either covered by some
    round or explicitly named in [gaps] (the open entries of the
    prover's gap journal). A history that drops a pair without
    declaring it is rejected (check [coverage.silent_loss]; the other
    new checks are [coverage.duplicate] and [coverage.gap_covered]).
    [complete] is true when [gaps] is empty: verified {e and} whole.
    An accepted history emits ["verifier.coverage.accept"]. *)

val verify_query :
  ?query:int ->
  expected_root:Zkflow_hash.Digest32.t ->
  Zkflow_zkproof.Receipt.t ->
  (Guests.query_journal, string) result
(** Verify a query receipt against the aggregated root the client just
    established via {!verify_chain}. Returns the journal, whose
    [result]/[matches] are then trustworthy. Emits
    ["verifier.query.accept"] or ["verifier.reject"] (checks
    [query.proof], [query.journal], [query.root]); [?query] is the
    correlation id carried on those events. *)

val verify_flows :
  ?query:int ->
  expected_root:Zkflow_hash.Digest32.t ->
  Query.flows_result ->
  (Query.flow_row list, string) result
(** Check a batched multi-flow readout against the root the client
    already verified: the single {!Zkflow_merkle.Multiproof} must
    authenticate every claimed entry at its claimed position, every
    per-flow [value] must equal the metric of its authenticated entry,
    and [total] must be their 32-bit wrapped sum. Returns the
    now-trustworthy rows. Emits ["verifier.flows.accept"] or
    ["verifier.reject"] (checks [flows.root], [flows.rows],
    [flows.indices], [flows.proof], [flows.values], [flows.total]). *)

val check_sla :
  ?query:int ->
  expected_root:Zkflow_hash.Digest32.t ->
  Zkflow_zkproof.Receipt.t ->
  predicate:(result:int -> matches:int -> bool) ->
  (bool, string) result
(** Convenience for SLA-style audits: verify, then evaluate a client-
    chosen predicate over the attested result. *)
