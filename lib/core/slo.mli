(** Service-level objectives over the flight-recorder event log,
    evaluated with multi-window burn-rate alerting (SRE-style).

    A {!spec} is data: a named objective saying "of the events matching
    [good] + [bad], at least [target] must be good", with the [bad]
    fraction judged against the error budget [1 - target] over paired
    long/short windows. The {e burn rate} is
    [bad_fraction / (1 - target)] — 1.0 means the budget is being spent
    exactly as provisioned, 14.4 means the whole budget would be gone
    in 1/14.4 of the SLO period. An alert fires only when {e both} the
    long and the short window of a pair burn past the pair's threshold:
    the long window gives significance, the short one makes the alert
    stop firing soon after the cause does.

    Kinds are matched with ['*'] globs ([verifier.*.accept]), and every
    firing alert carries the causal keys (router/epoch/round) of the
    bad events behind it — the same correlation keys the flight
    recorder indexes, so an alert names the exact export that opened
    the gap.

    Windows are clamped to the log's own span: a 40-second chaos run
    evaluates its "1 h" window over those 40 seconds, so one dropped
    export among a handful of publishes still registers as a massive
    burn, while a clean run burns 0 in every window. *)

type window = {
  w_name : string;
  long_s : float;
  short_s : float;
  burn_threshold : float;  (** fires when both windows burn >= this *)
}

type spec = {
  slo_name : string;
  good : string list;  (** event-kind globs counted as success *)
  bad : string list;   (** event-kind globs counted against the budget *)
  target : float;      (** in (0,1), e.g. 0.999 *)
  windows : window list;
}

type window_eval = {
  window : window;
  long_burn : float;
  short_burn : float;
  w_firing : bool;
}

type cause = {
  cause_kind : string;
  cause_router : int option;
  cause_epoch : int option;
  cause_round : int option;
}

type alert = {
  spec : spec;
  good_count : int;  (** over the whole log *)
  bad_count : int;
  window_evals : window_eval list;
  firing : bool;  (** some window pair fired *)
  causes : cause list;  (** first few bad events, with causal keys *)
}

val default_windows : window list
(** fast (1 h / 5 m, threshold 14.4) + slow (6 h / 30 m, threshold 6). *)

val default_specs : spec list
(** One objective per failure surface the recorder distinguishes:
    [coverage] (gap opens vs publishes), [board-integrity] (rejects),
    [prover-errors], [prover-restarts] (resumes),
    [verifier-acceptance], and [ingest-admission] (daemon shed
    windows vs accepted; a re-offered duplicate consumes no capacity
    and loses nothing, so it is not bad). All target 0.999 over
    {!default_windows}. *)

val kind_matches : string -> string -> bool
(** [kind_matches pattern kind]: glob match, ['*'] spans any
    substring. *)

val evaluate : ?specs:spec list -> Zkflow_obs.Event.t list -> alert list
(** Evaluate every spec against the log, anchored at the newest event's
    timestamp. [specs] defaults to {!default_specs}. A gap counts once:
    only the first ["prover.gap.open"] per (router, epoch) is seen, so
    the re-announcements a restart makes add no bad events. *)

val firing : alert list -> alert list
val firing_names : alert list -> string list

val expected_for : Zkflow_obs.Event.t list -> string list
(** The default-spec names a run's {e injected} faults should trip,
    derived from the ["fault.*"] marker events actually emitted:
    drops/delays -> [coverage], duplicates -> [board-integrity],
    crashes -> [prover-restarts], floods -> [ingest-admission].
    Sorted, deduplicated. The chaos harness asserts
    [expected_for log] is exactly what fired. *)

val to_json : alert list -> Zkflow_util.Jsonx.t
(** The [/slo] endpoint schema: [{"schema":"zkflow-slo/v1",
    "alerts":[..],"firing":[names],"ok":bool}]. *)

val pp : Format.formatter -> alert list -> unit
