(** Succinct receipt wrapping — the constant-size "proof" of Table 1.

    RISC Zero wraps its STARK receipt in a Groth16 SNARK to get a
    256-byte, constant-time-verifiable proof. Without a pairing curve,
    we substitute a designated-verifier construction (see DESIGN.md
    §2): at setup, auditor and prover share a MAC key; wrapping first
    runs the full receipt verifier (the analogue of the recursion
    circuit re-verifying the inner proof) and only then MACs the claim
    digest, expanding the tag to 256 bytes to mirror the Groth16 proof
    size. Verification is one MAC — O(1) like the paper's 3 ms checks.
    The trade-off (public verifiability → designated verifier) is
    recorded in DESIGN.md; the publicly verifiable path is the full
    {!Receipt.t}. *)

type vkey
(** The shared wrap key. *)

val setup : seed:bytes -> vkey
(** Deterministic key derivation from a setup seed (the "trusted
    setup" of the surrogate). *)

type t = {
  image_id : Zkflow_hash.Digest32.t;
  exit_code : int;
  journal : int array;
  seal256 : bytes; (** exactly 256 bytes *)
}

val proof_size : int
(** 256 — matches Table 1's constant "Proof (bytes)" column. *)

val wrap :
  vkey -> program:Zkflow_zkvm.Program.t -> Receipt.t -> (t, string) result
(** Verifies the inner receipt, then seals its claim. [Error _] when
    the inner receipt does not verify. *)

val verify : vkey -> t -> bool
(** Constant-time MAC check over the claim. A claim whose exit code or
    journal words fall outside 32 bits ({!Receipt.check_claim}) is
    rejected first: the MAC covers only their low 32 bits. *)

val encode : t -> bytes
val decode : bytes -> (t, string) result
