(** Byte-string helpers shared across zkflow.

    All integer accessors use big-endian byte order unless the name says
    otherwise; network-facing encodings in zkflow are big-endian
    throughout. *)

val get_u32_be : bytes -> int -> int32
(** [get_u32_be b off] reads a big-endian 32-bit word at byte offset
    [off]. Raises [Invalid_argument] when out of bounds. *)

val set_u32_be : bytes -> int -> int32 -> unit
(** [set_u32_be b off v] writes [v] big-endian at byte offset [off]. *)

val get_u64_be : bytes -> int -> int64
(** [get_u64_be b off] reads a big-endian 64-bit word. *)

val set_u64_be : bytes -> int -> int64 -> unit
(** [set_u64_be b off v] writes [v] big-endian. *)

val get_u16_be : bytes -> int -> int
(** [get_u16_be b off] reads a big-endian 16-bit word as a non-negative
    [int]. *)

val set_u16_be : bytes -> int -> int -> unit
(** [set_u16_be b off v] writes the low 16 bits of [v] big-endian. *)

val concat : bytes list -> bytes
(** [concat parts] is the concatenation of [parts]. *)

val equal_constant_time : bytes -> bytes -> bool
(** [equal_constant_time a b] compares [a] and [b] without
    short-circuiting on the first mismatching byte. Lengths must still be
    equal for the result to be [true]; differing lengths return [false]
    immediately (length is not secret in zkflow). *)

val equal_sub : bytes -> int -> bytes -> int -> int -> bool
(** [equal_sub a apos b bpos len] is whether the [len] bytes of [a] at
    [apos] equal those of [b] at [bpos]. It stops at the first
    mismatch, so it is not for secrets, and it allocates nothing.
    Raises [Invalid_argument] when either window is out of range. *)

val xor : bytes -> bytes -> bytes
(** [xor a b] is the byte-wise xor. Raises [Invalid_argument] when
    lengths differ. *)

val of_int32_list : int32 list -> bytes
(** [of_int32_list ws] packs each word big-endian, in order. *)

val to_int32_list : bytes -> int32 list
(** [to_int32_list b] unpacks big-endian words. Raises
    [Invalid_argument] when [Bytes.length b] is not a multiple of 4. *)

val pp_hex : Format.formatter -> bytes -> unit
(** [pp_hex ppf b] prints [b] as lowercase hex. *)
