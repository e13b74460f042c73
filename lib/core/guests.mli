(** The zkVM guest programs: Algorithm 1 (aggregation) and the query
    engine, written in ZR0 assembly, plus the host-side input
    marshalling and journal parsing that frame them.

    Guest I/O contract (all values 32-bit words):

    {b Aggregation input}: [m_prev], prev root (8), m_prev × 8 entry
    words (canonical order), [n_routers], then per router: claimed
    batch digest (8), record count, records (8 words each).

    {b Aggregation journal}: prev root (8), [n_routers], per-router
    digest (8 each), [m_new], m_new × 8 leaf-digest words, new root
    (8). Raw entries never enter the journal — only their Merkle leaf
    digests, preserving CLog confidentiality.

    {b Query input}: [m], claimed root (8), m × 8 entry words, then 10
    parameter words (4 care flags, 4 match values, op, metric).

    {b Query journal}: root (8), the 10 parameter words, result,
    match count.

    Guest exit codes: 0 success; 1 Merkle-root mismatch; 2 router
    commitment mismatch; 3 CLog capacity exceeded; 4 duplicate key in
    the previous CLog; 5 malformed query parameters. *)

val max_entries : int
(** CLog capacity the aggregation guest enforces (65536). *)

val aggregation_program : Zkflow_zkvm.Program.t Lazy.t
val query_program : Zkflow_zkvm.Program.t Lazy.t

val aggregation_image_id : unit -> Zkflow_hash.Digest32.t
val query_image_id : unit -> Zkflow_hash.Digest32.t

val aggregation_input :
  prev:Clog.t ->
  batches:(Zkflow_hash.Digest32.t * Zkflow_netflow.Record.t array) list ->
  int array
(** [batches] pairs each router's {e claimed} commitment (as published
    on the board) with its records. The guest recomputes and checks
    each digest. *)

type agg_journal = {
  prev_root : Zkflow_hash.Digest32.t;
  router_digests : Zkflow_hash.Digest32.t list;
  entry_count : int;
  leaf_digests : Zkflow_hash.Digest32.t array;
  new_root : Zkflow_hash.Digest32.t;
}

val parse_aggregation_journal : int array -> (agg_journal, string) result

type op = Sum | Count | Max | Min

type metric = Packets | Bytes | Hops | Losses

type predicate = {
  src_ip : Zkflow_netflow.Ipaddr.t option; (** [None] = wildcard *)
  dst_ip : Zkflow_netflow.Ipaddr.t option;
  ports : int option;  (** exact (src_port << 16) lor dst_port word *)
  proto : int option;
}
(** Per-key-word filters: each is exact-match-or-wildcard, mirroring
    the guest's word-level comparison. *)

type query_params = { predicate : predicate; op : op; metric : metric }

(** The text codec of ops (["sum"], ["count"], ["max"], ["min"]) and
    metrics (["packets"], ["bytes"], ["hops"], ["losses"]); the
    parsers name an unknown word in their [Error]. *)

val op_name : op -> string
val op_of_name : string -> (op, string) result
val metric_name : metric -> string
val metric_of_name : string -> (metric, string) result

val match_any : predicate
(** All wildcards. *)

val query_input : clog:Clog.t -> query_params -> int array

type query_journal = {
  root : Zkflow_hash.Digest32.t;
  params : query_params;
  result : int;
  matches : int;
}

val parse_query_journal : int array -> (query_journal, string) result

val params_equal : query_params -> query_params -> bool
