(** Exporters over the recorded telemetry.

    Two formats, matching the two consumers the round summaries have:
    - {!trace_json}: Chrome [trace_event] JSON (an array of complete
      ["ph":"X"] events) loadable in [chrome://tracing] or Perfetto;
    - {!prometheus}: a Prometheus text-format dump of every counter,
      histogram, and per-span total.

    {!stats_json} is the machine-readable combination used by
    [zkflow stats --json] and the bench artifacts. All string escaping
    goes through {!Zkflow_util.Jsonx}. *)

val trace_json : unit -> string
(** Every completed span as a Chrome trace event with keys [name],
    [cat], [ph], [ts], [dur], [pid], [tid] (and [args] when present).
    Timestamps are microseconds relative to the earliest span. *)

val prometheus : unit -> string
(** Text-format metrics dump. Metric names are sanitised
    ([sha256.compressions] → [zkflow_sha256_compressions]); spans
    appear as [zkflow_span_seconds_total{span="..."}] /
    [zkflow_span_count_total{span="..."}] pairs. *)

val stats_json : unit -> string
(** [{"counters":{...},"histograms":{...},"spans":{...}}] where each
    span entry carries [count] and [total_s]. *)
