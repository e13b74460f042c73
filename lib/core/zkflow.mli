(** zkflow — verifiable network telemetry without special-purpose
    hardware.

    High-level facade over the full pipeline of the paper:

    {ol
    {- routers export NetFlow records into a shared store and publish
       per-window hash commitments
       ({!Zkflow_store.Db}, {!Zkflow_commitlog.Board});}
    {- the operator's off-path prover aggregates each window into the
       Merkle-committed CLog inside the zkVM and obtains an aggregation
       receipt ({!Prover_service}, {!Aggregate});}
    {- clients issue queries; the operator proves them against the
       latest CLog ({!Query});}
    {- anyone verifies receipts and the board linkage without seeing a
       single log entry ({!Verifier_client}).}}

    {!simulate_and_prove} runs the whole thing on synthetic traffic —
    the one-call quickstart. *)

module Clog = Clog
module Guests = Guests
module Aggregate = Aggregate
module Query = Query
module Prover_service = Prover_service
module Verifier_client = Verifier_client
module Tamper = Tamper

type deployment = {
  db : Zkflow_store.Db.t;
  board : Zkflow_commitlog.Board.t;
  service : Prover_service.t;
}

val deploy :
  ?proof_params:Zkflow_zkproof.Params.t ->
  ?epoch_interval_ms:int ->
  unit ->
  deployment
(** Fresh in-memory deployment (default 5 s windows, the paper's
    setting). *)

type simulation = {
  deployment : deployment;
  rounds : (int * Aggregate.round) list; (** (epoch, round), oldest first *)
  packets : int;
  records : int;
}

val simulate_traffic :
  seed:int64 ->
  routers:int ->
  flows:int ->
  rate_pps:float ->
  duration_ms:int ->
  loss_rate:float ->
  Zkflow_store.Db.t ->
  int * int
(** The synthetic traffic [zkflow simulate] and {!simulate_and_prove}
    share: [flows] flows through a linear topology of [routers]
    routers, every record exported into the store. Returns the packet
    and record counts. *)

val simulate_and_prove :
  ?seed:int64 ->
  ?routers:int ->
  ?flows:int ->
  ?rate_pps:float ->
  ?duration_ms:int ->
  ?loss_rate:float ->
  unit ->
  (simulation, string) result
(** End-to-end: synthesize traffic through a linear topology of
    [routers] (default 4, as in Section 6), export NetFlow windows,
    publish commitments, and prove an aggregation round per epoch with
    {!Prover_service.aggregate_available}, requiring each round to be
    [Complete]. Defaults are sized to finish in seconds. *)

val verify_simulation : simulation -> (Verifier_client.verified_chain, string) result
(** What an external auditor would run over the simulation's outputs. *)
