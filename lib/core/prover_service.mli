(** The service provider's prover (Figure 1, left half).

    Owns the operator-side state: reads integrity windows from the
    shared {!Zkflow_store.Db}, checks them against the public
    {!Zkflow_commitlog.Board}, runs aggregation rounds (off-path — this
    is a plain value the operator can host anywhere), and answers
    queries against the latest committed CLog.

    The prover is {e crash-consistent}: with {!with_checkpoints}
    enabled, every completed round is journaled to a checksummed
    {!Zkflow_store.Wal} row before it is visible in memory, and
    {!resume} rebuilds the service from that journal after a crash —
    replaying intact rounds and re-proving (deterministically,
    bit-identically) whatever the crash destroyed. It is also
    {e degraded-mode capable}: {!aggregate_available} rounds proceed
    over the routers whose commitments are actually on the board,
    recording every absentee in the gap journal, and {!heal} folds
    late arrivals in afterwards. *)

type t

val create :
  ?proof_params:Zkflow_zkproof.Params.t ->
  db:Zkflow_store.Db.t ->
  board:Zkflow_commitlog.Board.t ->
  unit ->
  t

val clog : t -> Clog.t
(** Current aggregated state (starts empty). *)

val proof_params : t -> Zkflow_zkproof.Params.t
(** The spot-check parameters every round of this service proves
    under — [zkflow stats] derives its soundness-bits line from
    this. *)

val rounds : t -> Aggregate.round list
(** Completed rounds, oldest first. *)

val latest_root : t -> Zkflow_hash.Digest32.t

(* ---- publication ---- *)

type publish_report = {
  published : Zkflow_commitlog.Commitment.t list;
      (** fresh publications, router order *)
  skipped : int list;
      (** routers whose [(router, epoch)] pair was already on the
          board — re-running after a mid-epoch crash is a no-op for
          them, not a board rejection *)
}

val publish_epoch : t -> epoch:int -> (publish_report, string) result
(** The router-side duty, modelled here for convenience: publish every
    router's window-[epoch] commitment to the board. Idempotent —
    pairs already published are skipped and reported, so a publisher
    that crashed halfway through an epoch can simply run again. *)

(* ---- aggregation ---- *)

val aggregate_epoch : t -> epoch:int -> (Aggregate.round, string) result
(** One Algorithm 1 round over epoch [epoch], strict mode: windows are
    read from the store, their {e published} commitments from the
    board, and it is an error if any router in the store never
    published. On success the service state advances (and, with
    checkpointing on, the round is journaled first). *)

type gap = {
  router_id : int;
  epoch : int;
  detected_round : int;         (** round index that first noticed it *)
  healed_round : int option;    (** heal round that folded it in, if any *)
}
(** One missing [(router, epoch)] publication, named in the journal the
    moment a degraded round proceeds without it. An open gap ([None])
    is an explicit, monitorable statement of what the aggregate does
    {e not} cover — never silent loss. *)

type coverage = {
  epoch : int;
  routers : int list;  (** routers actually aggregated, ascending *)
  degraded : bool;     (** some expected router was absent *)
  heal : bool;         (** catch-up round folding in late arrivals *)
}
(** What one round covered — parallel to {!rounds}, oldest first. *)

type outcome =
  | Complete of Aggregate.round   (** every expected router covered *)
  | Degraded of Aggregate.round * gap list
      (** round proceeded over a subset; the new gaps are named *)
  | Skipped of gap list
      (** no router had published at all — no round, gaps recorded *)

val aggregate_available : t -> epoch:int -> (outcome, string) result
(** Degraded-mode round: aggregate whichever of the epoch's routers
    (per {!Zkflow_store.Db.routers_for}) have a commitment on the
    board, and journal a {!gap} for each that does not. Late routers
    therefore stall {e nothing} — their records are folded in by
    {!heal} once they finally publish. *)

val heal : t -> (Aggregate.round list, string) result
(** One catch-up round per epoch (ascending) for every open gap whose
    commitment has since appeared on the board; each folded-in gap is
    marked with its heal round. Gaps still missing stay open. *)

val heal_pending : t -> bool
(** Some open gap is healable right now. *)

val note_gap : t -> router_id:int -> epoch:int -> bool
(** Journal an open gap for a late-arriving export: the round for
    [epoch] already ran without [router_id] (so no gap was recorded at
    round time) and its records only reached the store afterwards.
    Emits [prover.gap.open]; {!heal} folds the pair in once its
    commitment is on the board. Returns [false] (and does nothing) if
    the pair is already in the journal. The entry becomes durable with
    the next checkpoint row; detection is idempotent across a crash. *)

val gaps : t -> gap list
(** The full gap journal, oldest first (healed entries included). *)

val open_gaps : t -> (int * int) list
(** Unhealed [(router, epoch)] pairs, oldest first. *)

val coverage : t -> coverage list
(** Per-round coverage, oldest first, aligned with {!rounds}. *)

val covered_epochs : t -> int list
(** Epochs with a non-heal round, ascending. *)

val queue_depth : t -> int
(** Store epochs not yet covered by a round — the service's backlog. *)

(* ---- crash consistency ---- *)

val with_checkpoints : t -> path:string -> unit
(** Journal every completed round to a checksummed WAL row at [path]
    (before the round becomes visible in memory). *)

val checkpoint_path : t -> string option

val abandon : t -> unit
(** Drop the checkpoint WAL's buffered, unsynced writes on the floor —
    exactly what a crash does. Test/chaos harness hook. *)

val resume :
  ?proof_params:Zkflow_zkproof.Params.t ->
  db:Zkflow_store.Db.t ->
  board:Zkflow_commitlog.Board.t ->
  path:string ->
  unit ->
  (t * int, string) result
(** Rebuild a service from its checkpoint journal: replay the WAL
    (torn tails already dropped by {!Zkflow_store.Wal.replay}), keep
    the longest prefix of rows whose checksum and decode pass, compact
    the file to that prefix when anything was dropped, and reopen for
    appending. Returns the service and the number of restored rounds
    (0 for a missing file — a fresh, checkpointing service). The
    dropped suffix is simply re-proved: aggregation is deterministic,
    so the re-proved rounds are bit-identical to the lost ones. The
    open gaps the last restored row detected are re-announced as
    ["prover.gap.open"] events (at their [detected_round]), so a crash
    between a round's checkpoint and its own announcement cannot hide
    a gap from the event log. *)

(* ---- summaries ---- *)

type round_summary = {
  index : int;       (** 0-based round number *)
  entries : int;     (** CLog length after the round *)
  root : string;     (** post-round CLog root, hex *)
  cycles : int;      (** guest cycles *)
  execute_s : float; (** guest execution wall time (0 when restored) *)
  prove_s : float;   (** proving wall time (0 when restored) *)
  restored : bool;   (** round came from {!load}/{!resume}, not proved here *)
}

val summaries : t -> round_summary list
(** Per-round digest of the service history, oldest first — the
    backing data of [zkflow stats]. *)

val summary_json : t -> string
(** {!summaries} plus the current root/length, per-round coverage, and
    the gap journal as one JSON object (keys [entries], [root],
    [rounds], [gaps], [open_gaps]). *)

val query : t -> Guests.query_params -> (Query.result_row, string) result
(** Prove a query against the latest CLog. *)

val prove_custom :
  ?proof_params:Zkflow_zkproof.Params.t ->
  ?subject:string ->
  Zkflow_zkvm.Program.t ->
  input:int array ->
  (Zkflow_zkproof.Receipt.t * Zkflow_zkvm.Machine.result, string) result
(** Prove an arbitrary guest (e.g. a compiled Zirc query) behind the
    same static-analysis gate as the built-in guests: a program with
    [Error]-severity findings (see {!Zkflow_analysis.check}) is
    refused before any proving work, unless [ZKFLOW_NO_ANALYZE=1] is
    set in the environment. Every proving entry point of this module
    ({!aggregate_epoch}, {!query}, {!query_at}) runs the same gate. *)

val save : t -> bytes
(** Serialize the service state (CLog entries plus every round's
    receipt, post-round entries and coverage, plus the gap journal) so
    an operator can stop and resume across process restarts without
    re-proving history. *)

val load :
  ?proof_params:Zkflow_zkproof.Params.t ->
  db:Zkflow_store.Db.t ->
  board:Zkflow_commitlog.Board.t ->
  bytes ->
  (t, string) result
(** Inverse of {!save}; restored rounds carry
    [Aggregate.restored = true] and their wall-clock timings read 0,
    so reporting never mistakes a deserialized round for one proved in
    this process. Still reads the pre-gap v1 format (empty coverage
    and gap journal). Fails on malformed bytes or receipts. *)

type disclosure = {
  indices : int list;                 (** CLog positions, ascending *)
  entries : Clog.entry list;          (** the disclosed entries, aligned *)
  proof : Zkflow_merkle.Multiproof.t; (** batched inclusion proof *)
}
(** Selective disclosure: with the client's consent (e.g. a legal
    order covering specific flows), the operator reveals exactly those
    CLog entries, authenticated against the already-verified root —
    and provably nothing else is needed to check them. *)

val disclose :
  t -> keys:Zkflow_netflow.Flowkey.t list -> (disclosure, string) result
(** Build a disclosure for the given flows against the latest CLog.
    Fails if any key is absent (use a query with an exact-match
    predicate to prove absence-of-traffic instead). *)

val query_flows :
  t ->
  metric:Guests.metric ->
  Zkflow_netflow.Flowkey.t list ->
  (Query.flows_result, string) result
(** Answer a multi-flow metric readout against the latest CLog with one
    batched Merkle multiproof (see {!Query.prove_flows}) — the batched
    replacement for issuing one inclusion proof per flow. *)

val query_at : t -> round:int -> Guests.query_params -> (Query.result_row, string) result
(** Prove a query against the historical CLog state after round
    [round] (0-based). Every past root stays pinned by its aggregation
    receipt, so clients can audit any earlier integrity window — the
    retrospective/interval-query use the paper's related work
    motivates. *)
