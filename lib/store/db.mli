(** The shared telemetry store — the role PostgreSQL plays in the
    paper's testbed: every simulated router writes its records here,
    partitioned by (router, epoch) so the commitment and aggregation
    layers can fetch exactly one integrity window at a time.

    The store is honest-by-default but {i untrusted}: {!tamper} mutates
    history exactly like a malicious operator would, and nothing here
    prevents it — detection comes from the published commitments. *)

type t

val create : ?wal_path:string -> epoch:Epoch.policy -> unit -> t
(** In-memory store; with [wal_path], appends are also journaled and
    {!recover} can rebuild the store from disk. *)

val epoch_policy : t -> Epoch.policy

val insert : t -> Zkflow_netflow.Record.t -> unit
(** Files the record under its router id and the epoch of its
    [last_ts]. *)

val insert_batch : t -> Zkflow_netflow.Record.t list -> unit

val add_window : t -> router_id:int -> epoch:int -> unit
(** Registers [(router_id, epoch)] as a window even when it holds no
    record, so {!routers_for} lists it: a router commits to every
    window it exports, the empty ones included. *)

val window :
  ?announce:bool -> t -> router_id:int -> epoch:int -> Zkflow_netflow.Record.t array
(** All records of one router's integrity window, in insertion order
    ([||] when empty). The first read of each window while the
    recorder is on emits one [store.window] event with its record
    count; later reads of it from this store emit none. A replay that
    hands the window on to another store, which announces it when its
    round reads it, passes [~announce:false]. *)

val routers : t -> int list
(** Router ids present, ascending. *)

val epochs : t -> int list
(** Epochs present (any router), ascending. *)

val routers_for : t -> epoch:int -> int list
(** Router ids with a window at [epoch], ascending — the set a
    degraded-mode aggregation round measures its coverage against.
    Windows are indexed by epoch, so this reads that epoch's windows
    only. *)

val epoch_count : t -> int
(** The number of epochs present: [List.length (epochs t)]. *)

val window_count : t -> int
(** The number of windows the store has ever held, counted as each is
    created. *)

val windows_from : t -> int -> (int * int) list
(** [windows_from t k] is every window created after the first [k],
    as [(router_id, epoch)], in creation order: with
    {!window_count}, how a caller takes only the windows that are new
    since it last looked. *)

val windows : t -> (int * int list) list
(** The windows the routers export: every epoch present, ascending,
    with every router the store knows ({!routers}), records or not.
    Routers publish exactly these, and a replay submits exactly
    these. *)

val record_count : t -> int

val tamper :
  t -> router_id:int -> epoch:int -> pos:int ->
  (Zkflow_netflow.Record.t -> Zkflow_netflow.Record.t) ->
  (unit, string) result
(** Adversary hook: rewrites the [pos]-th record of a window in place
    (Figure 3's post-commitment modification). *)

val recover : wal_path:string -> epoch:Epoch.policy -> (t, string) result
(** Rebuilds a store from its WAL. *)

val sync : t -> unit
(** Flushes the WAL, if any. *)
