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
    bit-identically) whatever the crash destroyed. That journal is the
    prover's only saved state; {!restore} reads it without touching
    it. It is also {e degraded-mode capable}: {!aggregate_available}
    rounds proceed over the routers whose commitments are actually on
    the board, recording every absentee in the gap journal, and
    {!heal} folds late arrivals in afterwards. *)

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
(** The spot-check parameters every new round of this service proves
    under. Restored rounds carry their own in their seals
    ({!seal_queries}). *)

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
    router's window-[epoch] commitment to the board, an empty window
    included, and register each window in the store
    ({!Zkflow_store.Db.add_window}) so the epoch's round covers it.
    Idempotent — pairs already published are skipped and reported, so
    a publisher that crashed halfway through an epoch can simply run
    again. *)

(* ---- aggregation ---- *)

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
(** One Algorithm 1 round over epoch [epoch], the only way to prove a
    new epoch: aggregate every window of the epoch (per
    {!Zkflow_store.Db.routers_for}) whose commitment is on the board,
    fetching each commitment once, and journal a {!gap} for each that
    is not. [Complete] means every window was covered; a caller that
    needs a whole epoch requires it. Late routers stall {e nothing} —
    their records are folded in by {!heal} once they finally publish.
    With checkpointing on, the round is journaled before the service
    state advances. *)

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

val is_covered : t -> epoch:int -> bool
(** Whether [epoch] has a non-heal round: a lookup in an index the
    service keeps as rounds land or are restored. *)

val covers : t -> router_id:int -> epoch:int -> bool
(** Whether any round, heal rounds included, covered the window. *)

val attempted : t -> epoch:int -> bool
(** Whether [epoch] has a non-heal round or an entry in the gap
    journal: a skipped epoch is completed by heal rounds, never by a
    later full round. *)

val queue_depth : t -> int
(** Store epochs not yet covered by a round — the service's backlog. *)

(* ---- crash consistency ---- *)

val with_checkpoints : t -> path:string -> unit
(** Journal every completed round to a checksummed WAL row at [path]
    (before the round becomes visible in memory). *)

val mark_drained : t -> unit
(** Append the drain marker, a fixed row, to the checkpoint journal
    and sync it (a no-op without checkpointing): the journal is whole,
    and the next {!resume} over it is a planned start. {!restore} and
    {!resume} skip the marker, and {!resume} drops it before
    appending. *)

val abandon : t -> unit
(** Drop the checkpoint WAL's buffered, unsynced writes on the floor —
    exactly what a crash does. Test/chaos harness hook. *)

val restore :
  ?proof_params:Zkflow_zkproof.Params.t ->
  db:Zkflow_store.Db.t ->
  board:Zkflow_commitlog.Board.t ->
  path:string ->
  unit ->
  (t, string) result
(** Read-only view of a checkpoint journal: replay the WAL (torn
    tails already dropped by {!Zkflow_store.Wal.replay}) and rebuild
    the service from the longest prefix of rows whose checksum and
    decode pass. The file is not rewritten or opened for appending,
    and no event is emitted. Restored rounds carry
    [Aggregate.restored = true] and read 0 wall-clock time. A missing
    file, or one that holds only a drain marker, is an empty service;
    any other file with bytes but no intact row is an [Error]. *)

val resume :
  ?proof_params:Zkflow_zkproof.Params.t ->
  db:Zkflow_store.Db.t ->
  board:Zkflow_commitlog.Board.t ->
  path:string ->
  unit ->
  (t * int, string) result
(** Rebuild a service from its checkpoint journal as {!restore} does
    (a file without an intact row restores nothing), compact the file
    to the intact prefix when anything was dropped, and reopen it for
    appending. Returns the service and the number of restored rounds
    (0 for a missing file — a fresh, checkpointing service). The
    dropped suffix is simply re-proved: aggregation is deterministic,
    so the re-proved rounds are bit-identical to the lost ones. The
    gaps the last restored row opened or healed are re-announced as
    ["prover.gap.open"] / ["prover.gap.heal"] events, so a crash
    between a round's checkpoint and its own announcement cannot hide
    them from the event log. A ["prover.resume"] event is emitted when
    the file existed and does not end with a drain marker
    ({!mark_drained}): a start after a completed drain is planned, not
    a recovery. *)

(* ---- summaries ---- *)

type round_summary = {
  index : int;       (** 0-based round number *)
  entries : int;     (** CLog length after the round *)
  root : string;     (** post-round CLog root, hex *)
  cycles : int;      (** guest cycles *)
  execute_s : float; (** guest execution wall time (0 when restored) *)
  prove_s : float;   (** proving wall time (0 when restored) *)
  restored : bool;   (** round came from {!restore}/{!resume}, not proved here *)
}

val summaries : t -> round_summary list
(** Per-round digest of the service history, oldest first — the
    backing data of [zkflow stats]. *)

val seal_queries : t -> (int * int list) list
(** The spot-check counts the rounds' receipts carry in their seals,
    ascending, each with the (0-based) rounds that carry it. *)

val summary_json : t -> string
(** {!summaries} plus the current root/length, per-round coverage,
    the gap journal and {!seal_queries} as one JSON object (keys
    [entries], [root], [proof_params], [rounds], [round_cycles],
    [gaps], [open_gaps]). *)

val query : t -> Guests.query_params -> (Query.result_row, string) result
(** Prove a query against the latest CLog. *)

val prove_custom :
  ?proof_params:Zkflow_zkproof.Params.t ->
  ?subject:string ->
  Zkflow_zkvm.Program.t ->
  input:int array ->
  (Zkflow_zkproof.Receipt.t * Zkflow_zkvm.Machine.result, string) result
(** Prove an arbitrary guest (e.g. a compiled Zirc query) behind the
    static-analysis gate ({!Zkflow_analysis.gate}): a program with
    [Error]-severity findings is refused before any proving work. This
    is the one entry point that takes a program from outside; the
    others ({!aggregate_available}, {!heal}, {!query}, {!query_at})
    prove the built-in guests, which are fixed at build time and not
    gated at run time. *)

val query_at : t -> round:int -> Guests.query_params -> (Query.result_row, string) result
(** Prove a query against the historical CLog state after round
    [round] (0-based); a round outside the history is an [Error].
    Every past root stays pinned by its aggregation receipt, so
    clients can audit any earlier integrity window — the
    retrospective/interval-query use the paper's related work
    motivates. *)
