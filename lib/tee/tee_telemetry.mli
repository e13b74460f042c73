(** The TEE-based verifiable-telemetry baseline (TrustSketch-shaped):
    an enclave on every vantage point ingests that router's records at
    capture time and answers queries with attested reports.

    Contrast with the ZKP pipeline: integrity holds from the moment of
    capture (stronger in that respect), but every router needs TEE
    hardware, the relying party must trust the vendor's attestation
    root, and reports reveal the queried values to whoever can request
    them. The benchmark harness measures deployment count and
    per-record/per-report costs against the software-only design. *)

type t

val deploy : Enclave.platform -> router_ids:int list -> code_id:string -> t
(** One enclave per vantage point ([router_ids] must be non-empty and
    duplicate-free). *)

val code_measurement : t -> Zkflow_hash.Digest32.t
val enclave_count : t -> int

val ingest : t -> Zkflow_netflow.Record.t -> (unit, string) result
(** Routes the record to its router's enclave; fails when that router
    has no TEE deployed — the coverage gap the paper highlights. *)

val flow_report :
  t -> router_id:int -> Zkflow_netflow.Flowkey.t -> (Enclave.report, string) result
(** Attested per-flow counters. The report payload is 36 bytes: the
    router id (4 bytes), the flow key (16) and the counters (packets,
    bytes, hop_count, losses; 4 bytes each), all big-endian. *)

val decode_report_metrics : bytes -> (Zkflow_netflow.Record.metrics, string) result
(** The counters of a report payload. *)

val verify_report :
  attestation_key:bytes ->
  expected_measurement:Zkflow_hash.Digest32.t ->
  router_id:int ->
  key:Zkflow_netflow.Flowkey.t ->
  Enclave.report ->
  bool
(** {!Enclave.verify_report}, and the payload names [router_id] and
    [key]: every enclave of a deployment shares one measurement and one
    platform key, so only the payload tells a report for one flow or
    router from another's. *)
