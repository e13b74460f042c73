(** The telemetry plane's HTTP routes: one {!Zkflow_obs.Httpd.handler}
    serving [/metrics] (Prometheus text), [/healthz] (a full
    {!Monitor} report under its {!Monitor.verdict}) and [/slo]
    (burn-rate alerts, {!Slo.to_json} schema).

    The same handler serves two {!source}s. {!live_source} reads the
    in-process registries and the event ring at request time: it is
    the plane [zkflow serve] answers on. {!artifact_source} is a pure
    function of a saved event log, re-read on every request, so
    [zkflow watch --dir] over a finished run serves current file
    contents without a restart. *)

type source = {
  label : string;  (** ["live"] or ["artifact"], echoed in [/healthz] *)
  events : unit -> (Zkflow_obs.Event.t list, string) result;
  metrics_text : unit -> (string, string) result;
      (** Prometheus exposition body *)
}

val live_source : unit -> source
(** In-process state: {!Zkflow_obs.Event.events}, and for [/metrics]
    {!Zkflow_obs.Export.prometheus} plus four [zkflow_gc_*] gauges
    ([minor_words], [major_words], [compactions], [heap_words]) read
    from [Gc.quick_stat] at scrape time. *)

val artifact_source : events_path:string -> source
(** A saved event log, re-read per request. A missing or unreadable
    file is a 503 naming it on [/healthz], [/slo] and [/metrics], the
    answer [monitor --strict] and [slo --strict] give as an exit 1.
    [/metrics] is the log's count per event kind, one
    [zkflow_events_total{kind="..."}] line each, sorted by kind. *)

val handler : source -> Zkflow_obs.Httpd.handler
(** Route [/], [/metrics], [/healthz] and [/slo]; anything else is
    [None] (the server's 404). [/healthz] answers
    [{"schema":"zkflow-healthz/v1","source":..,"healthy":..,
      "reasons":[..],"report":{..}}] with {!Monitor.verdict} of the
    source's events, status 200 when healthy and 503 when not. [/slo]
    evaluates {!Slo.default_specs}. *)

val probe : Zkflow_obs.Httpd.handler -> string -> Zkflow_obs.Httpd.response
(** Invoke a handler directly — no socket — on a raw request target
    (query string allowed), resolving [None] to the same JSON 404 the
    server would send. Backs [zkflow watch --probe], which lets tests
    and CI validate endpoint schemas without binding a port. *)
