(** The pipeline flight recorder: a causal log of structured events.

    Where {!Span} answers "where did the prover's seconds go inside
    one process", an event answers "what happened to proof round 3
    across the whole pipeline": routers exporting RLog windows, the
    bulletin board accepting (or rejecting) commitments, the prover
    service aggregating epochs, and the client verifier delivering
    verdicts. Every event carries the correlation keys of the paper's
    data flow — [router], [epoch], [round], [query] — so one grep on
    a round id over the JSONL file reconstructs the full story of a
    proof from packet generation to client acceptance.

    Events are ring-buffered in memory (oldest dropped beyond
    {!capacity}, with the drop count kept) and flushed to a sink on
    demand. Like every other recorder in [lib/obs], {!emit} is gated
    on {!Control.on}: while telemetry is disabled it does nothing and
    never changes what is proven (the differential suite in
    [test/test_obs.ml] enforces bit-identical receipts with the log
    on and off). Emission sites are cold paths — per window, per
    round, per verdict — never per record or per hash. *)

type t = {
  ts_ns : int;  (** monotonic timestamp ({!Clock.now_ns}) *)
  track : string;
      (** the pipeline actor: ["router.N"], ["board"], ["store"],
          ["prover"], ["verifier"], ["gen"] *)
  kind : string;
      (** what happened, namespaced: ["board.publish"],
          ["prover.round.done"], ["verifier.reject"], … *)
  router : int option;
  epoch : int option;
  round : int option;
  query : int option;
  attrs : (string * Zkflow_util.Jsonx.t) list;
      (** free-form payload (counts, durations, digests, causes) *)
}

val emit :
  ?router:int ->
  ?epoch:int ->
  ?round:int ->
  ?query:int ->
  ?attrs:(string * Zkflow_util.Jsonx.t) list ->
  track:string ->
  string ->
  unit
(** [emit ~track kind] records one event with the current monotonic
    timestamp. A no-op while telemetry is disabled. *)

val record : t -> unit
(** [record e] records an event already stamped, as it is: one that
    {!isolate} captured, carried over into the ring it restored. A
    no-op while telemetry is disabled. *)

val events : unit -> t list
(** Buffered events, oldest first. *)

val dropped : unit -> int
(** Events evicted from the ring since the last {!reset}. *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Resize the ring (drops everything buffered; min capacity 1). *)

val reset : unit -> unit
(** Drop all buffered events and zero the drop counter. *)

(** {2 JSONL} *)

val to_json : t -> Zkflow_util.Jsonx.t
(** One event as a flat JSON object: [ts_ns]/[track]/[kind], the
    correlation keys that are present, then the attrs. *)

val of_json : Zkflow_util.Jsonx.t -> (t, string) result
(** Inverse of {!to_json}: requires [ts_ns]/[track]/[kind]; unknown
    keys become attrs. *)

val parse_line : string -> (t, string) result

val flush : (string -> unit) -> unit
(** Sink API: drain the buffer oldest-first, handing each event to
    the writer as one JSONL line (newline included), then clear the
    buffer. The drop counter is preserved. *)

val write_jsonl : ?append:bool -> string -> unit
(** Flush the buffer to a file as JSONL ([append] defaults to
    [false]: truncate). *)

val load_jsonl : string -> (t list * string option, string) result
(** Read a JSONL event log back, skipping blank lines. A truncated or
    corrupt {e final} line — what a crash mid-flush leaves behind — is
    tolerated: the longest decodable prefix is returned together with
    a [truncated_tail] note describing what was dropped. A bad line
    with intact events after it is real corruption and still fails.
    Errors carry the 1-based line number. *)

val isolate : (unit -> 'a) -> 'a * t list
(** [isolate f] runs [f] against a fresh, empty ring and returns its
    result together with every event recorded during the call; the
    previous ring contents (and drop counter) are restored afterwards,
    also on exception. Used by the chaos harness to flight-record the
    uninterrupted twin without polluting the chaos run's log. *)
