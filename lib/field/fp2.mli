(** Quadratic extension F_p² = F_p\[u\] / (u² − ν) of the BabyBear
    field, with ν a fixed quadratic non-residue.

    The memory check's Fiat–Shamir challenges (alpha, beta) are drawn
    from this extension, so a fingerprint collision between two
    distinct access-log entries has probability about 1 / |F_p²|
    rather than 1 / |F_p|. *)

type t = { c0 : Babybear.t; c1 : Babybear.t }
(** [c0 + c1·u]. *)

val non_residue : Babybear.t
(** ν, verified non-square at module initialisation. *)

val zero : t
val one : t

val of_base : Babybear.t -> t
(** Embeds F_p. *)

val make : Babybear.t -> Babybear.t -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val inv : t -> t
(** Raises [Division_by_zero] on [zero]. *)

val pow : t -> int -> t
val equal : t -> t -> bool

val random : Zkflow_util.Rng.t -> t

val of_digest_prefix : bytes -> t
(** [of_digest_prefix d] derives an element from the first 8 bytes of a
    (≥ 8-byte) digest; used to sample Fiat–Shamir challenges. *)

val to_bytes : t -> bytes
(** Canonical 8-byte encoding (two little-endian 32-bit coordinates). *)

val of_bytes : bytes -> (t, string) result
(** Inverse of {!to_bytes}; rejects non-canonical coordinates. *)

val pp : Format.formatter -> t -> unit
