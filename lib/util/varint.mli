(** LEB128-style variable-length integer encoding used by the storage
    codecs. Values are non-negative and fit in an OCaml [int]. *)

val write : Buffer.t -> int -> unit
(** [write buf v] appends the varint encoding of [v]. Raises
    [Invalid_argument] if [v < 0]. *)

val put : bytes -> int -> int -> int
(** [put b off v] writes the varint encoding of [v] at [off] and
    returns the offset just past it: the bytes {!write} would append.
    Callers size [b] with {!size}. Raises [Invalid_argument] if [v < 0]
    or the encoding does not fit in [b]. *)

val read : bytes -> int -> int * int
(** [read b off] decodes a varint at [off] and returns
    [(value, next_offset)]. The value is never negative. Raises
    [Invalid_argument] on truncated input, and on an encoding whose
    value exceeds [max_int] ("Varint.read: overflow"). *)

val get : bytes -> int ref -> int
(** [get b pos] is {!read} at [!pos], with [pos] moved past the
    encoding instead of a pair returned, so a decoder reading field
    after field allocates nothing per field. It raises as {!read}
    does. *)

val size : int -> int
(** [size v] is the number of bytes [write] emits for [v]. *)
