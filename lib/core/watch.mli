(** The live telemetry plane behind [zkflow watch] and the
    [--listen PORT] flag on [prove]/[chaos]: one {!Zkflow_obs.Httpd.handler}
    serving [/metrics] (Prometheus text), [/healthz] (a full
    {!Monitor} report under its {!Monitor.verdict}) and [/slo]
    (burn-rate alerts, {!Slo.to_json} schema).

    The same handler serves two {!source}s: {!live_source} reads the
    in-process registries — counters, the time-series ring, the event
    ring — so scraping a running prove sees the run as it happens;
    {!artifact_source} re-reads saved run artifacts (the event log and
    the time-series JSONL) on every request, so [zkflow watch --dir]
    over a finished run serves current file contents without a
    restart. *)

type source = {
  label : string;  (** ["live"] or ["artifact"], echoed in [/healthz] *)
  events : unit -> (Zkflow_obs.Event.t list, string) result;
  frames : unit -> (Zkflow_obs.Timeseries.frame list, string) result;
  metrics_text : unit -> string;  (** Prometheus exposition body *)
}

val live_source : unit -> source
(** In-process registries: {!Zkflow_obs.Event.events},
    {!Zkflow_obs.Timeseries.frames}, {!Zkflow_obs.Export.prometheus}
    plus the time-series gauges. *)

val artifact_source :
  events_path:string option -> ?timeseries_path:string -> unit -> source
(** Saved artifacts, re-read per request. A missing [events_path]
    serves empty logs; an unreadable file surfaces as a 503 on the
    endpoints that need it. [/metrics] is rebuilt from the {e last}
    saved frame's cumulative registry snapshot. *)

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
