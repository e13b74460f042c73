(** The receipt protocol's Fiat–Shamir schedule, shared verbatim by
    prover and verifier so the two sides derive identical challenges. *)

type challenges = {
  alpha : Zkflow_field.Fp2.t;
  beta : Zkflow_field.Fp2.t;
  step_idx : int array;     (** row pair positions, in [0, n_rows−1) *)
  sorted_idx : int array;   (** sorted-log pair positions *)
  zt_idx : int array;       (** grand-product link positions (time) *)
  zs_idx : int array;       (** grand-product link positions (sorted) *)
}

val derive :
  claim:Receipt.claim ->
  queries:int ->
  n_rows:int ->
  n_mem:int ->
  root_rows:Zkflow_hash.Digest32.t ->
  root_time:Zkflow_hash.Digest32.t ->
  root_sorted:Zkflow_hash.Digest32.t ->
  root_jacc:Zkflow_hash.Digest32.t ->
  commit_z:
    (alpha:Zkflow_field.Fp2.t -> beta:Zkflow_field.Fp2.t -> Zkflow_hash.Digest32.t) ->
  challenges * Zkflow_hash.Digest32.t
(** [commit_z] is called between the α/β draw and the index draws: the
    prover builds and commits the shared grand-product tree there; the
    verifier just returns the root claimed in the seal. Returns the
    challenges plus that one phase-2 root. The transcript domain is
    ["zkflow.zkvm.receipt.v2"]. *)
