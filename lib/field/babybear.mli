(** The BabyBear prime field, F_p with p = 2^31 − 2^27 + 1 = 2013265921.

    This is the field used by RISC Zero's STARK; the memory check
    fingerprints trace entries over its quadratic extension {!Fp2}.
    Elements are represented as OCaml [int]s in [\[0, p)]; products fit
    in 62 bits, so native arithmetic is exact. *)

type t = int
(** A field element, always canonical (in [\[0, p)]). *)

val p : int
(** The modulus, 2013265921. *)

val zero : t
val one : t

val of_int : int -> t
(** [of_int n] reduces [n] (possibly negative) into [\[0, p)]. *)

val to_int : t -> int
(** Identity; for documentation at call sites. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

val pow : t -> int -> t
(** [pow x n] for [n >= 0], by square-and-multiply. *)

val inv : t -> t
(** [inv x] is the multiplicative inverse. Raises [Division_by_zero] on
    [zero]. *)

val div : t -> t -> t
(** [div x y] is [mul x (inv y)]. *)

val equal : t -> t -> bool

val of_bytes_le : bytes -> int -> t
(** [of_bytes_le b off] reads 4 little-endian bytes and reduces mod p. *)

val random : Zkflow_util.Rng.t -> t
(** Uniform element (rejection sampling). *)

val pp : Format.formatter -> t -> unit
