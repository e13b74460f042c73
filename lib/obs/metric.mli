(** Named counters and log2-bucketed histograms.

    Metrics are registered once (typically at module initialisation of
    the instrumented library) and recorded from any domain. Counters
    keep one cell per recording domain in domain-local storage, so the
    hot increment is an unshared [int ref] write — no atomic
    contention between pool workers hashing in parallel; readers sum
    the cells. Histograms are mutex-protected (their call sites are
    per-region / per-round, not per-element).

    Every recording entry point first branches on {!Control.on} and is
    a no-op (no allocation, no locking) while telemetry is disabled. *)

type counter

val counter : string -> counter
(** Get or create the counter registered under [name]. Counter and
    histogram names share one namespace by convention
    ([subsystem.metric], e.g. ["sha256.compressions"]). *)

val add : counter -> int -> unit
(** Add [n] (a no-op while telemetry is disabled). *)

val value : counter -> int
(** Sum over every domain's cell. Cells of live workers are read
    without synchronisation — exact once the pool is quiescent,
    a close lower bound while it runs. *)

type histogram

val histogram : string -> histogram
(** Get or create the histogram registered under [name]. Buckets are
    powers of two: bucket [i >= 1] counts observations [v] with
    [2^(i-1) <= v < 2^i]; bucket [0] counts [v <= 0]. *)

val observe : histogram -> int -> unit
(** Record one observation (a no-op while telemetry is disabled). *)

type histogram_snapshot = {
  count : int;
  sum : int;
  max_value : int;
  buckets : (int * int) list;
      (** [(le, n)]: [n] observations with value [<= le]; cumulative,
          ascending, only non-empty buckets plus their predecessors'
          totals folded in. *)
}

val snapshot : histogram -> histogram_snapshot

val snapshot_of_values : int list -> histogram_snapshot
(** Bucket a list of values through the same log2 scheme without
    registering a histogram (and regardless of the telemetry gate) —
    for offline consumers such as [zkflow monitor] replaying round
    latencies out of an event log. *)

val percentile : histogram_snapshot -> float -> int
(** [percentile s q] for [q] in [0..1] (e.g. [0.5], [0.95], [0.99]):
    the upper bound of the first bucket whose cumulative count reaches
    rank [ceil (q * count)], capped at the observed maximum. [0] when
    the histogram is empty. The estimate errs high by at most the
    bucket width (a factor of 2). *)

val counters : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

val histograms : unit -> (string * histogram_snapshot) list
(** Every registered histogram, sorted by name. *)

val reset_all : unit -> unit
(** Zero every counter cell and histogram. Call only while no
    instrumented workload is running. Registrations persist. *)
