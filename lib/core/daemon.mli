(** The resident telemetry service behind [zkflow serve]: a
    crash-tolerant daemon that ingests router exports continuously,
    proves rounds off-path, heals gaps, and answers proof-backed
    queries over the embedded HTTP plane.

    {b Architecture.} One worker thread owns all mutable pipeline
    state (the record store, the prover service, the board): exports
    enter through a {e bounded} ingest queue and everything downstream
    is single-threaded, so no lock discipline is needed around the
    store or the Merkle state. HTTP query threads never touch the
    pipeline — they prove against an immutable CLog snapshot, behind a
    proving lock and a memo table.

    {b Shedding policy (reject-newest).} [submit] never blocks and
    never buffers beyond [queue_capacity]: when the queue is full the
    {e new} export is rejected with {!Shed}, a [daemon.ingest.shed]
    event and a Prometheus counter. [submit_wait] is the backpressure
    variant: it blocks the exporter until there is room. Each
    [(router, epoch)] window is accepted at most once ({!Duplicate}
    on a repeat), so a retrying exporter cannot double-ingest.

    {b I/O edges.} Ingest ([daemon.ingest] failpoint) and board
    publication ([daemon.publish] failpoint, when [publish] is on)
    run under {!Zkflow_fault.Fault.Retry.with_backoff} with seeded
    full jitter: 5 attempts, backoff from 1 ms capped at 50 ms. Edges
    that exhaust their retry budget feed a circuit breaker: at 3
    consecutive exhaustions the breaker opens ([daemon.breaker.open]),
    publication is skipped — rounds proceed in the degraded
    gap-journal mode instead of wedging — and after 4 worker passes
    the breaker half-opens ([daemon.breaker.half_open]) and probes
    again ([daemon.breaker.close] on success).

    {b Windows.} Every submitted window is registered in the store,
    an empty one included ({!Zkflow_store.Db.add_window}): the router
    committed to it, so the epoch's round covers it.

    {b Lifecycle.} [Running → Draining → Stopped], with [Crashed] as
    an off-path state: a {!Zkflow_fault.Fault.Crash} — or any other
    exception, such as a failed checkpoint write — anywhere in the
    worker abandons the checkpoint WAL's unsynced tail and parks the
    daemon with a [daemon.crash] event naming the site (the
    exception's text); {!restart} re-runs {!Prover_service.resume}
    (emitting [prover.resume]) and re-proves bit-identically. {!drain}
    is the SIGTERM path: stop intake, finish everything in flight
    (including heal rounds), append the journal's drain marker, then
    return — the caller flushes artifacts and exits 0.

    {b Health.} The daemon keeps no health state of its own: its
    [/healthz] is {!Watch}'s, {!Monitor.verdict} over the live event
    ring, so it judges only what the flight recorder saw. *)

type config = {
  queue_capacity : int;  (** bounded ingest queue, in windows *)
  publish : bool;
      (** daemon publishes ingested windows to the board on the
          routers' behalf (on for [zkflow serve]; [zkflow prove] and
          the chaos harness turn it off: the board is given) *)
  retry_sleep : float -> unit;
      (** how to spend the jittered backoff (seconds);
          [Thread.delay] in production, a no-op in deterministic
          harnesses *)
}

val default_config : config
(** capacity 64, publish on, [Thread.delay]. *)

type t

type submit_result =
  | Accepted
  | Shed  (** queue full — reject-newest, [daemon.ingest.shed] *)
  | Duplicate  (** this [(router, epoch)] window was already accepted *)
  | Closed  (** intake closed: draining, stopped, or crashed *)

val create :
  ?config:config ->
  ?proof_params:Zkflow_zkproof.Params.t ->
  ?seed:int ->
  ?paused:bool ->
  db:Zkflow_store.Db.t ->
  board:Zkflow_commitlog.Board.t ->
  ckpt_path:string ->
  unit ->
  (t * int, string) result
(** Start the daemon: resume the prover from the checkpoint WAL at
    [ckpt_path] (0 restored rounds for a fresh file), derive the
    already-ingested [(router, epoch)] set from [db], and spawn the
    worker (parked if [paused] — {!unpause} releases it; the chaos
    flood phase uses this to fill the queue deterministically).
    [seed] drives the retry jitter. Raises nothing on a crashpoint
    armed during resume: that surfaces as [Error]. *)

val submit :
  t -> router_id:int -> epoch:int -> Zkflow_netflow.Record.t list -> submit_result
(** Non-blocking ingest of one router's window export. *)

val submit_wait :
  t -> router_id:int -> epoch:int -> Zkflow_netflow.Record.t list -> submit_result
(** Blocking ingest: waits while the queue is full (backpressure)
    instead of shedding. Still returns immediately with {!Duplicate}
    or {!Closed} when no amount of waiting would help. *)

val advance : t -> epoch:int -> unit
(** Raise the ingest watermark: epochs [<= epoch] are closed and the
    worker may prove them. The watermark only moves forward, but the
    call always schedules one more worker pass — harnesses use a
    same-epoch [advance] as a poke after changing the board under a
    [publish:false] daemon. *)

val await_idle : t -> [ `Idle | `Crashed of string ]
(** Block until the worker has nothing left to do under the current
    watermark (queue empty, rounds proved, heals done) — or until it
    crashed, returning the crash site. *)

val crashed : t -> string option

val kill : t -> site:string -> unit
(** Harness hook: park the daemon as if the process died at [site]
    right now — abandon unsynced checkpoint writes, discard the
    queue, stop the worker, emit [daemon.crash]. Call only while the
    worker is idle. A no-op on a crashed daemon. *)

val restart : t -> (int, string) result
(** Supervised recovery from {!kill} or a worker crash: re-run
    {!Prover_service.resume} on the checkpoint WAL (re-proving the
    lost tail bit-identically, [prover.resume] event), re-derive the
    ingested set from the store, and spawn a fresh worker. Returns
    the restored round count. [Error "crashed during resume"] means a
    crashpoint fired inside recovery itself — the caller may restart
    again. *)

val drain : t -> (unit, string) result
(** Graceful shutdown of the pipeline (the SIGTERM path): close
    intake, move the watermark past every epoch, wait for the worker
    to finish all ingest, rounds and heals, and append the drain
    marker to the checkpoint journal ({!Prover_service.mark_drained}),
    so the next session's resume is not counted as a restart. [Error]
    reports a crash mid-drain; after {!restart}, calling [drain] again
    resumes the drain. Emits [daemon.drain.start] /
    [daemon.drain.done]. *)

val stop : t -> unit
(** Join the worker thread. The daemon is unusable afterwards. *)

val unpause : t -> unit

val service : t -> Prover_service.t
(** The underlying prover service (read-only use expected). *)

val round_error : t -> epoch:int -> string option
(** The error of the last failed round over [epoch], if a round over
    it failed. *)

val root_hex : t -> string
(** Current CLog root, hex. *)

type counters = {
  accepted : int;
  shed : int;
  duplicates : int;
  queue_depth : int;
  max_depth : int;  (** high-water mark; never exceeds capacity *)
  rounds : int;
  heal_rounds : int;
  drains : int;
  breaker_opens : int;
  memo_hits : int;
  memo_misses : int;
  breaker : string;  (** ["closed"], ["open"] or ["half-open"] *)
}

val counters : t -> counters

val query :
  t -> Guests.query_params -> (Query.result_row * bool, string) result
(** Prove (or serve memoized — the [bool] is [true] on a cache hit) a
    query against the current CLog. Memo keyed by
    [(Merkle root, query)]; entries for superseded roots stay until the
    table reaches 256 entries, when it is emptied. Heavy proving is
    serialized behind one lock. *)

val query_flows :
  t ->
  metric:Guests.metric ->
  Zkflow_netflow.Flowkey.t list ->
  (Query.flows_result * bool, string) result
(** Multi-flow readout through the batched multiproof, memoized like
    {!query}. *)

val handler : t -> Zkflow_obs.Httpd.handler
(** The daemon's HTTP plane: [/], [/status],
    [/query?src=&dst=&ports=&proto=&op=&metric=],
    [/flows?metric=&keys=src:dst:sp:dp:proto,...|first=N], plus
    [/metrics], [/healthz] and [/slo] from the live {!Watch} source. *)
