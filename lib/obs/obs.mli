(** Top-level switchboard of the telemetry subsystem.

    Usage from an instrumented module:
    {[
      let c_hashes = Zkflow_obs.Metric.counter "merkle.nodes_hashed"

      let build ... =
        let t0 = Zkflow_obs.Span.start () in
        ...work...
        Zkflow_obs.Metric.add c_hashes n;
        Zkflow_obs.Span.finish "merkle.build" t0
    ]}

    and from a driver (CLI, bench, test):
    {[
      Zkflow_obs.Obs.reset ();
      Zkflow_obs.Obs.enable ();
      ...workload...
      Zkflow_obs.Obs.write_trace "out.json"
    ]}

    Everything recorded is observational: enabling telemetry never
    changes receipts, roots, or any other proof output (enforced by
    the differential suite in [test/test_obs.ml]). Disabled-path cost
    at every instrumentation site is a branch on one atomic flag —
    no allocation, no clock read. *)

val on : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero all metrics, drop all recorded spans and all buffered events
    (registrations persist). Call between workloads being compared. *)

val with_enabled : (unit -> 'a) -> 'a
(** [with_enabled f]: reset, enable, run [f], disable (also on
    exception). The recorded data stays available for export after
    the call. *)

val write_trace : string -> unit
(** Write {!Export.trace_json} to a file. *)

val write_events : ?append:bool -> string -> unit
(** Flush the buffered {!Event} log to a JSONL file (and clear the
    buffer). The pipeline CLI appends each stage's events to one
    shared file so [zkflow monitor] can replay the whole run. *)

val span_totals_s : unit -> (string * (int * float)) list
(** Per-span-name [(count, total seconds)], sorted by name — the
    "phases" view the bench artifacts embed. *)
