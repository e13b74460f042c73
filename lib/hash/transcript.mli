(** Fiat–Shamir transcript over SHA-256.

    A transcript deterministically turns the prover's commitments into
    the verifier's challenges, making the proof protocols
    non-interactive. Absorb operations are length- and label-framed so
    distinct absorb sequences can never collide; every challenge
    ratchets the state, so later challenges depend on earlier ones. *)

type t
(** A transcript. Absorbs and draws stream through one reused SHA-256
    context and scratch buffers: they allocate nothing beyond the
    digest {!challenge_digest} returns and the array of
    {!challenge_ints}. A transcript must not be shared between
    domains. *)

val create : domain:string -> t
(** [create ~domain] starts a transcript bound to a protocol name. *)

val absorb_bytes : t -> label:string -> bytes -> unit
val absorb_digest : t -> label:string -> Digest32.t -> unit
val absorb_int : t -> label:string -> int -> unit

val challenge_digest : t -> label:string -> Digest32.t
(** Squeeze a 32-byte challenge. *)

val challenge_int : t -> label:string -> bound:int -> int
(** Uniform in [\[0, bound)] (rejection sampling over 64-bit draws).
    Raises [Invalid_argument] if [bound <= 0]. *)

val challenge_ints : t -> label:string -> bound:int -> count:int -> int array
(** [count] independent draws (duplicates possible). *)
