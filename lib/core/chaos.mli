(** Deterministic chaos harness: one seeded fault plan, one full
    simulate → publish → prove → kill/restart → verify cycle against
    the resident {!Daemon} (the pipeline [zkflow serve] runs), judged
    against an uninterrupted batch twin.

    The harness runs the same deterministic traffic twice. First the
    {e twin}: data faults only (drops, delays, duplicates — they shape
    what is available to aggregate), no crashes, no corruption, rounds
    driven straight through {!Prover_service}, its flight-recorder
    events captured in isolation ({!Zkflow_obs.Event.isolate}) so they
    never pollute the chaos run's log. Then the {e chaos run}: the
    daemon, with publication off, ingests every window through its
    bounded queue while the harness plays the routers against the
    board with the twin's walks — so every data fault keeps the twin's
    semantics — under the plan's armed crash sites, flaky reads and
    storage corruption. Worker deaths (crash sites inside rounds and
    checkpoints) and harness-side deaths (["board.publish"]) both go
    through the supervised {!Daemon.restart} path, with storage faults
    corrupting [dir/checkpoints.wal] between death and resume. A
    [Flood] entry adds an overload burst against a parked throwaway
    daemon with a tiny queue: everything past capacity must shed
    explicitly ([daemon.ingest.shed]), and the shed count is exact.

    Three properties are asserted, and reported per run:

    - {b safety} — every receipt verifies against its claimed coverage
      ({!Verifier_client.verify_coverage}), and the chaos run's final
      CLog root is {e bit-identical} to the twin's: crashes, retries
      and recoveries changed nothing about the attested history.
    - {b liveness} — the run ends with every integrity window either
      verified or {e explicitly} degraded: any gap still open names an
      export the plan destroyed (a [Drop]); silent loss of data the
      pipeline was given fails the run.
    - {b SLO cross-check} — the chaos run fires exactly the objectives
      its injected faults wound ({!Slo.expected_for}), and the twin
      fires nothing beyond its shared data-fault objectives. *)

type config = {
  routers : int;
  flows : int;
  rate_pps : float;
  duration_ms : int;
  loss_rate : float;
  queries : int;       (** FRI queries — proof-size/speed knob *)
  max_restarts : int;  (** kill/resume budget before giving up *)
}

val default_config : config
(** 3 routers, ~11 s of traffic across 3 epochs, fast proof params,
    up to 40 restarts. *)

type status = Complete | Degraded

type report = {
  plan : Zkflow_fault.Fault.plan;
  status : status;            (** [Degraded] iff gaps remain open *)
  packets : int;
  records : int;
  epochs : int;
  rounds : int;               (** aggregation rounds, heal included *)
  heal_rounds : int;
  crashes : int;              (** injected kills (including re-kills during recovery) *)
  resumes : int;              (** successful checkpoint recoveries *)
  restored_rounds : int;      (** rounds replayed from disk by the last resume *)
  open_gaps : (int * int) list;  (** unhealed (router, epoch) pairs *)
  final_root : string;        (** chaos run's final CLog root, hex *)
  twin_root : string;         (** uninterrupted twin's root, hex *)
  safety_ok : bool;
  liveness_ok : bool;
  slo_expected : string list;
      (** SLO names the plan's injected faults should trip
          ({!Slo.expected_for} over the chaos run's log) *)
  slo_fired : string list;   (** SLOs that actually fired on the chaos run *)
  slo_ok : bool;             (** [slo_fired] equals [slo_expected] as a set *)
  twin_slo_fired : string list;
      (** SLOs firing on the twin — it shares the plan's data faults,
          so [coverage] / [board-integrity] may legitimately fire *)
  twin_slo_ok : bool;
      (** the twin fired nothing beyond its shared data-fault SLOs —
          in particular never [prover-restarts] *)
  submitted : int;      (** window exports the harness offered *)
  accepted : int;       (** admitted by the bounded queue *)
  shed : int;           (** rejected-newest (flood phase included) *)
  duplicates : int;     (** re-offered windows turned away *)
  drains : int;
  breaker_opens : int;
  flood_windows : int;  (** 0 when the plan has no [Flood] *)
  flood_shed : int;
  flood_ok : bool;
      (** exactly [windows - capacity] shed, and the flood daemon's
          own coverage verifies; [true] without a [Flood] *)
}

val run :
  ?dir:string ->
  ?config:config ->
  plan:Zkflow_fault.Fault.plan ->
  unit ->
  (report, string) result
(** Execute one chaos cycle: simulate → batch twin → daemon under the
    plan's kills and corruption → flood burst (if planned) → verify.
    [?dir] (default: a fresh temp directory) receives [rlogs.wal] and
    [checkpoints.wal], and at the end the [board.txt] / [service.bin]
    artifacts [zkflow monitor] reads; an existing [checkpoints.wal]
    there is removed first so every run starts cold. [Error _] means
    the harness itself could not complete (e.g. the restart budget was
    exhausted, or the board accepted a duplicate) — fault-induced
    degradation is {e not} an error, it is a [Degraded] report. *)

val verdict : report -> (unit, string) result
(** [Ok ()] iff safety, liveness, the flood check and both SLO
    cross-checks hold; the SLO lists are judged by the same rule that
    sets [slo_ok] and [twin_slo_ok]. The error names every violated
    property and every missed or spurious objective. *)

val status_string : status -> string
val to_json : report -> Zkflow_util.Jsonx.t
(** Flat report object; the daemon counters sit under ["daemon"]. *)

val pp : Format.formatter -> report -> unit
