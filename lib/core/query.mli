(** Verifiable queries over the committed CLog state (Section 4.2).

    A query is compiled to guest parameters, executed inside the zkVM
    against the Merkle-authenticated entries, and returns a receipt
    whose journal carries the root it ran against, the exact query, the
    result and the match count — everything a client needs, with no
    entry data exposed. *)

type result_row = {
  receipt : Zkflow_zkproof.Receipt.t;
  journal : Guests.query_journal;
  cycles : int;
  execute_s : float;
  prove_s : float;
}

val reference : Clog.t -> Guests.query_params -> int * int
(** Host-side evaluation [(result, matches)] — the value the guest must
    reproduce; used for cross-checks and tests. *)

val execute :
  clog:Clog.t -> Guests.query_params ->
  (Zkflow_zkvm.Machine.result, string) result
(** Guest run without proving. *)

val prove :
  ?params:Zkflow_zkproof.Params.t ->
  clog:Clog.t ->
  Guests.query_params ->
  (result_row, string) result
(** Execute, prove, parse and cross-check against {!reference}. *)

(** {2 Batched multi-flow queries}

    A client auditing [k] specific flows used to pay for [k] separate
    query proofs (or [k] single-leaf inclusion proofs). A flows query
    instead answers all of them against one root with a single batched
    {!Zkflow_merkle.Multiproof}: shared helper digests along the merged
    root-paths are carried once, so proof size is sublinear in [k]. *)

type flow_row = {
  index : int;        (** CLog position *)
  entry : Clog.entry; (** the flow's committed entry *)
  value : int;        (** the requested metric of that entry *)
}

type flows_result = {
  root : Zkflow_hash.Digest32.t;  (** the CLog root answered against *)
  metric : Guests.metric;
  rows : flow_row list;           (** ascending by [index] *)
  total : int;                    (** 32-bit wrapped sum of [value]s *)
  proof : Zkflow_merkle.Multiproof.t;
      (** one batched inclusion proof covering every row *)
}

val prove_flows :
  clog:Clog.t ->
  metric:Guests.metric ->
  Zkflow_netflow.Flowkey.t list ->
  (flows_result, string) result
(** Answer a per-flow metric readout for each given key with one
    batched proof. Fails on an empty key list, a duplicate key, or a
    key absent from the CLog (prove absence with an exact-match
    {!prove} query instead). Verified client-side by
    {!Verifier_client.verify_flows}. *)

(** Convenience constructors for common audit queries. *)

val sum_hops_between :
  src:Zkflow_netflow.Ipaddr.t -> dst:Zkflow_netflow.Ipaddr.t -> Guests.query_params
(** The paper's example: SELECT SUM(hop_count) WHERE src_ip = … AND
    dst_ip = …. *)

val loss_of_flow : Zkflow_netflow.Flowkey.t -> Guests.query_params
(** Total losses for one exact 5-tuple. *)

val flow_count : Guests.query_params
(** COUNT over all flows. *)
