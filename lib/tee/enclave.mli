(** Simulated trusted execution environment (SGX-style enclave).

    This is the baseline the paper argues against: it gives the same
    integrity guarantees as the real thing {i inside the simulation} —
    code measurement and MAC-based remote attestation rooted in a
    per-platform hardware key — while modelling the
    deployment property that matters for the comparison: one enclave
    must run on {i every} vantage point, whereas the ZKP design needs
    no trusted hardware anywhere. *)

type platform
(** A TEE-capable host with a fused hardware attestation key. *)

val platform : seed:bytes -> platform
(** Manufacture a platform (the key derives from [seed]). *)

val attestation_key : platform -> bytes
(** The verification key a remote attestation service would hold. *)

type 'state t
(** A launched enclave holding private ['state]. *)

val launch : platform -> code_id:string -> init:'state -> 'state t
(** [code_id] stands for the enclave binary; its hash is the
    measurement. *)

val measurement : _ t -> Zkflow_hash.Digest32.t

val run : 'state t -> ('state -> 'state * 'a) -> 'a
(** Execute inside the enclave (an "ecall"): the closure sees and
    replaces the private state; only the return value leaves. *)

type report = {
  measurement : Zkflow_hash.Digest32.t;
  data : bytes;            (** user-supplied report payload *)
  mac : bytes;             (** HMAC over measurement ‖ data *)
}

val attest : _ t -> data:bytes -> report
(** Produce a remote-attestation report binding [data] to this
    enclave's identity. *)

val verify_report :
  attestation_key:bytes ->
  expected_measurement:Zkflow_hash.Digest32.t ->
  report ->
  bool
(** What a relying party checks: correct platform key, expected code
    identity, untampered payload. *)
