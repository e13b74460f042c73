(** Health/SLO reports replayed from the flight-recorder event log,
    and the pipeline's one health verdict.

    [zkflow monitor] feeds the JSONL event log (and, when available,
    the saved prover-service state) through {!build} and prints the
    resulting {!report}: per-router commitment lag and missed-epoch
    gaps, aggregation-round latency percentiles, verifier rejection
    counts by failing check, and the prover-service backlog over time.
    Everything is derived offline from recorded events — building a
    report never touches the live telemetry gate.

    {!verdict} is the only health verdict: [monitor --strict],
    [slo --strict], and the [/healthz] of [zkflow watch] and of
    [zkflow serve] all return it. *)

(** Latency distribution summary, in nanoseconds, computed from log2
    histogram buckets (so percentiles are upper bounds, like the
    Prometheus exporter's quantile lines). *)
type latency = { count : int; p50_ns : int; p95_ns : int; p99_ns : int; max_ns : int }

(** Round-latency trend from the log's [prover.round.done] events: the
    p95 of the newer half of the done rounds, in log order, against the
    older half, so one [monitor --json] artifact answers "is the prover
    slowing down" without a second run to diff against. A round's
    latency is its [prove_ns + execute_ns], the value the
    [prover.round_ns] histogram observes. With [n] rounds the older
    half is the first [n / 2]. *)
type trend = {
  last_count : int;  (** rounds in the newer half *)
  last_p95_ns : int;
  prev_count : int;  (** rounds in the older half *)
  prev_p95_ns : int;
  trend_ratio : float option;
      (** [last_p95 / prev_p95]; [None] when [prev_p95] is 0 *)
}

type router_health = {
  router_id : int;
  publishes : int;  (** fresh board publications seen on this router's track *)
  last_epoch : int option;  (** newest epoch this router committed to *)
  lag : int;
      (** epochs behind the newest epoch any router committed; 0 means
          the router is current. *)
  missed : int list;
      (** board epochs at or before [last_epoch] the router never
          published — gaps inside its own history. *)
}

type gap_status = {
  gap_router : int;
  gap_epoch : int;
  opened_round : int;        (** round that first proceeded without it *)
  healed_round : int option; (** heal round that folded it in, if any *)
}
(** One coverage gap replayed from ["prover.gap.open"] /
    ["prover.gap.heal"] events. *)

(** A pipeline health verdict: [healthy] iff [reasons] is empty. A
    reason is the name of a firing {!Slo.default_specs} objective
    ([coverage], [board-integrity], [prover-errors], [prover-restarts],
    [verifier-acceptance], [ingest-admission]) or of a gauge read from
    the same log: [router-lag] (a router behind, or missing an epoch
    inside its own history), [open-gaps] (a coverage gap still open at
    the end of the log), [daemon-crashed] (a [daemon.crash] with no
    later [daemon.restart] or [daemon.start]) and [breaker-open] (a
    [daemon.breaker.open] with no later half-open, close, restart or
    start). Objectives come first, in spec order, then the gauges in
    this order. *)
type verdict = { healthy : bool; reasons : string list }

type report = {
  events : int;  (** total events replayed *)
  epochs : int list;  (** distinct epochs with at least one fresh publication *)
  routers : router_health list;
  board_rejects : (string * int) list;  (** board rejection reason -> count *)
  rounds_started : int;
  rounds_done : int;
  rounds_error : int;
  rounds_skipped : int;  (** degraded rounds with nothing to aggregate *)
  degraded_rounds : int; (** rounds that proceeded with missing routers *)
  heal_rounds : int;     (** catch-up rounds folding in late arrivals *)
  round_latency : latency option;
      (** wall time from [prover.round.start] to [prover.round.done],
          matched by round index *)
  prove_latency : latency option;  (** the proving phase alone, from [prove_ns] *)
  queue_depth : (int * int) list;
      (** (round index, service backlog at round start), in order *)
  max_queue_depth : int;
  queries_done : int;
  queries_error : int;
  verifier_accepts : int;  (** accept verdicts of any kind *)
  verifier_rejects : (string * int) list;  (** failing check -> count *)
  gaps : gap_status list;  (** every gap ever opened, in open order *)
  open_gap_count : int;
  crashes : int;  (** injected ["fault.crash"] events *)
  resumes : int;  (** ["prover.resume"] recoveries *)
  retries : int;  (** ["fault.retry"] backoff attempts *)
  fault_events : (string * int) list;  (** injected fault kind -> count *)
  ingest_accepted : int;  (** daemon windows admitted *)
  ingest_shed : int;  (** windows rejected-newest at a full queue *)
  ingest_duplicates : int;  (** repeat [(router, epoch)] submissions *)
  drains : int;  (** completed graceful drains *)
  breaker_opens : int;  (** circuit-breaker open transitions *)
  service_rounds : int option;  (** from the saved service state, when given *)
  service_entries : int option;
  service_root : string option;
  round_trend : trend option;
      (** [None] with fewer than two timed done rounds *)
  verdict : verdict;  (** {!verdict} of the replayed events *)
}

val build : ?service:Prover_service.t -> Zkflow_obs.Event.t list -> report
(** Replay a recorded event list into a health report. [?service] adds
    the persisted prover-service view (round count, CLog size, root)
    for cross-checking against what the log claims happened; it does
    not change [verdict]. One log always gives one report. *)

val verdict : Zkflow_obs.Event.t list -> verdict
(** The health verdict of a recorded event list: [(build events).verdict].
    Injected-fault markers and degraded/heal rounds do not count by
    themselves; the reasons judge the pipeline's reaction to them. *)

val pp : Format.formatter -> report -> unit
(** Human-readable report: router table, latency percentiles,
    rejection counts, backlog summary. *)

val to_json : report -> Zkflow_util.Jsonx.t
