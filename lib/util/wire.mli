(** Composable binary encoding: varint-framed writer and checked
    reader. All multi-byte scalars are varints; byte strings are
    length-prefixed. Decoders return [Error _] on malformed input
    instead of raising. *)

type writer

val writer : unit -> writer
(** A writer into a buffer that grows as it is written. *)

val sizer : unit -> writer
(** A writer that writes nothing and only counts: after a sequence of
    writes, {!length} is the bytes they would take. *)

val into : bytes -> pos:int -> writer
(** [into b ~pos] writes into [b] from [pos] on, in place. A write
    past the end of [b] raises [Invalid_argument]: size [b] first with
    a {!sizer}. *)

val length : writer -> int
(** The bytes written so far. *)

val w_int : writer -> int -> unit
(** Non-negative ints only; raises [Invalid_argument] otherwise. *)

val w_bool : writer -> bool -> unit
val w_bytes : writer -> bytes -> unit
val w_string : writer -> string -> unit
val w_list : writer -> ('a -> unit) -> 'a list -> unit
(** Count-prefixed. The element callback must write via this writer. *)

val w_array : writer -> ('a -> unit) -> 'a array -> unit
val contents : writer -> bytes
(** A copy of the bytes written so far. *)

type reader

val reader : bytes -> reader
val r_int : reader -> int
val r_bool : reader -> bool
val r_bytes : reader -> bytes
val r_string : reader -> string
val r_list : reader -> (unit -> 'a) -> 'a list
val r_array : reader -> (unit -> 'a) -> 'a array
val r_end : reader -> unit
(** Asserts all input was consumed. *)

val r_raw : reader -> int -> bytes
(** [r_raw r n] reads the next [n] bytes, unframed. After an {!r_int}
    it reads a {!w_bytes} field whose length the caller has bounded. *)

exception Decode of string
(** Raised by the [r_*] functions on malformed input. *)

val decode : bytes -> (reader -> 'a) -> ('a, string) result
(** Runs a decoder, catching {!Decode} (and varint errors) as
    [Error]. Also checks full consumption. *)
