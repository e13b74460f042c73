(** The public bulletin board: append-only publication of per-router
    window commitments. Verifiers read commitments from here; the
    untrusted operator cannot retract or rewrite one once published
    (enforced by rejecting double publication and by per-router
    chaining). *)

type t

val create : unit -> t

val publish :
  t -> Zkflow_netflow.Record.t array -> router_id:int -> epoch:int ->
  (Commitment.t, string) result
(** Commits a window and publishes it. Fails on double publication for
    the same (router, epoch) or on out-of-order epochs for a router. *)

val lookup : t -> router_id:int -> epoch:int -> Commitment.t option
(** The router's commitment to [epoch], read from a per-router index
    by epoch. *)

val chain_head : t -> router_id:int -> Zkflow_hash.Digest32.t
(** The router's current commitment-chain head (genesis when none). *)

val commitments : t -> router_id:int -> Commitment.t list
(** All of one router's commitments, in epoch order. *)

val publish_digest :
  t ->
  batch:Zkflow_hash.Digest32.t ->
  record_count:int ->
  router_id:int ->
  epoch:int ->
  (Commitment.t, string) result
(** Like {!publish} but from an already-computed digest — used when
    replaying a serialized board. Same ordering rules. *)

val routers : t -> int list

val export : t -> string
(** Text serialization, one commitment per line
    ([router epoch count digest-hex]), ordered for deterministic
    replay. *)

val import : string -> (t, string) result
(** Rebuilds a board from {!export} output, re-deriving the per-router
    chains. *)
