(** SHA-256 (FIPS 180-4), implemented from scratch.

    This is the only cryptographic hash in zkflow; it backs log
    commitments, Merkle trees, Fiat–Shamir transcripts and the zkVM's
    SHA accelerator ecall (mirroring RISC Zero's SHA-256 precompile).

    Every compression runs on one of two kernels that compute the same
    function: the x86-64 SHA extensions when the CPU has them, the
    OCaml rounds otherwise. The CPU alone decides, once, at program
    start; {!kernel} names the choice. *)

val kernel : string
(** The live compression kernel: ["sha-ni"] on an x86-64 CPU with the
    SHA extensions (and SSSE3 and SSE4.1), ["ocaml"] everywhere else. *)

type ctx
(** Streaming hash context. Absorbing and compressing allocate
    nothing; [finalize] allocates only the digest it returns. *)

val init : unit -> ctx
(** [init ()] is a fresh context. *)

val reset : ctx -> unit
(** [reset ctx] returns [ctx] to the freshly-initialised state
    (including after [finalize]), so hot loops can hash many messages
    without reallocating the context. *)

val update : ctx -> bytes -> unit
(** [update ctx b] absorbs all of [b]. *)

val update_sub : ctx -> bytes -> pos:int -> len:int -> unit
(** [update_sub ctx b ~pos ~len] absorbs [len] bytes of [b] starting at
    [pos]. *)

val update_string : ctx -> string -> unit
(** [update_string ctx s] absorbs the bytes of [s]. *)

val finalize : ctx -> bytes
(** [finalize ctx] pads, produces the 32-byte digest and invalidates
    [ctx]: further [update]/[finalize] calls raise [Invalid_argument]. *)

val finalize_into : ctx -> dst:bytes -> dst_pos:int -> unit
(** [finalize_into ctx ~dst ~dst_pos] is {!finalize} writing the
    digest into [dst.[dst_pos .. dst_pos+31]] instead of a fresh
    buffer, so it allocates nothing. Raises [Invalid_argument] when the
    window is out of range. *)

type node
(** A Merkle node rule, as data: the chaining value the 64 child
    bytes are compressed into, and whether the constant padding block
    of a 64-byte message follows. There are two, {!digest64} and
    {!node64}. *)

val digest64 : node
(** SHA-256 of the 64 child bytes: the standard IV, then the padding
    block; two compressions. The rule of the CLog tree and of every
    structure a zkVM guest recomputes. *)

val node64 : node
(** One compression of the 64 child bytes from {!node_iv}; no padding
    block. The proof system's trace-commitment rule. It is not the
    SHA-256 of any message. *)

val node_into :
  node -> ctx -> src:bytes -> src_pos:int -> dst:bytes -> dst_pos:int -> unit
(** [node_into r ctx ~src ~src_pos ~dst ~dst_pos] writes the node hash
    under [r] of the 64 bytes [src.[src_pos .. src_pos+63]] into
    [dst.[dst_pos .. dst_pos+31]]. [dst] may overlap [src]. [ctx] is
    working storage: any message in progress is discarded and [ctx] is
    left finalized, so one context serves a whole loop of calls but
    must never be shared between domains. Counts the rule's
    compressions and allocates nothing. Raises [Invalid_argument] when
    either window is out of range. *)

val digest64_into :
  ctx -> src:bytes -> src_pos:int -> dst:bytes -> dst_pos:int -> unit
(** [digest64_into] is [node_into digest64]: the SHA-256 of the 64
    bytes, counting two compressions like the streamed hash of the
    same bytes. Out-of-range windows raise
    [Invalid_argument "Sha256.digest64_into: out of bounds"]. *)

val node64_into :
  ctx -> src:bytes -> src_pos:int -> dst:bytes -> dst_pos:int -> unit
(** [node64_into] is [node_into node64], counting one compression.
    Out-of-range windows raise
    [Invalid_argument "Sha256.node64_into: out of bounds"]. *)

(** {2 Batch kernels}

    A Merkle build hashes a chunk of one level's slots in one call.
    Slots are 32-byte windows: slot [k] of a buffer is bytes
    [32k .. 32k+31]. Both kernels apply the equal-neighbour rule in
    their own loop: a slot past the first of the window whose input
    equals its left neighbour's copies the neighbour's digest instead
    of hashing. Both return the number of slots they hashed, count
    exactly the compressions they ran, allocate nothing, and leave
    [ctx] (working storage, as for {!node_into}) finalized. A refused
    window raises [Invalid_argument] before any slot is written or any
    compression counted. On SHA-NI the loops run in C; elsewhere they
    run one slot at a time through {!node_into} and the streamed
    hash. *)

val level_into :
  node -> ctx -> bytes -> src:int -> dst:int -> lo:int -> hi:int -> int
(** [level_into r ctx buf ~src ~dst ~lo ~hi] writes, for each [i] in
    [\[lo, hi)], the node hash under [r] of slots [src + 2i] and
    [src + 2i + 1] of [buf] into slot [dst + i]; when [i > lo] and
    those 64 bytes equal the 64 at slot [src + 2(i - 1)], it copies
    slot [dst + i - 1] instead. Refuses a window with [lo < 0],
    [hi < lo], a slot past the end of [buf], or output slots
    [\[dst + lo, dst + hi)] that meet the input slots
    [\[src + 2lo, src + 2hi)]. *)

val leaves_into :
  ctx -> prefix:bytes -> Zkflow_util.Column.t -> dst:bytes -> lo:int -> hi:int -> int
(** [leaves_into ctx ~prefix col ~dst ~lo ~hi] writes, for each [i] in
    [\[lo, hi)], the SHA-256 of [prefix ‖ leaf i of col] into slot [i]
    of [dst]; when [i > lo] and leaf [i] holds the same bytes as leaf
    [i - 1], it copies slot [i - 1] instead. Leaves may have any
    length; a hashed leaf counts every block of its message. Refuses a
    window with [lo < 0], [hi < lo], [hi] past the column's leaves or
    past the slots of [dst], or [dst] physically equal to [prefix] or
    to the column's payload ("window out of range or overlapping");
    then offsets [off.(lo)] below 0 or [off.(hi)] past the payload
    ("offsets past the buffer"), and any [off.(i) > off.(i + 1)] in
    the window ("offsets decrease"). *)

val leaves_array_into :
  ctx -> prefix:bytes -> bytes array -> dst:bytes -> lo:int -> hi:int -> int
(** [leaves_array_into ctx ~prefix leaves ~dst ~lo ~hi] is
    {!leaves_into} over the column [Column.of_array leaves], without
    building it: the same digests, equal-neighbour copies and
    compression count, each leaf hashed where it lies. It serves the
    leaves a seal carries, one [bytes] each. Refuses a window with
    [lo < 0], [hi < lo], [hi] past the leaves or past the slots of
    [dst], or [dst] physically equal to [prefix] or to a leaf ("window
    out of range or overlapping"). *)

val digest : bytes -> bytes
(** [digest b] is the one-shot 32-byte SHA-256 of [b]. *)

val digest_string : string -> bytes
(** [digest_string s] is the one-shot digest of the bytes of [s]. *)

val digest_sub : bytes -> pos:int -> len:int -> bytes
(** [digest_sub b ~pos ~len] hashes a slice without copying it. *)

val digest_concat : bytes list -> bytes
(** [digest_concat parts] hashes the concatenation of [parts] without
    materialising it. *)

val iv : int array
(** The initial 8-word chaining state, as non-negative 32-bit ints. *)

val node_iv : int array
(** The chaining value {!node64} starts from: the state after
    compressing, from {!iv}, one block holding ["zkflow.node.v2"]
    zero-padded to 64 bytes. As non-negative 32-bit ints. *)

val compress_words : int array -> int array -> int array
(** [compress_words state block] is one raw compression step: [state]
    is 8 words, [block] 16 words, both as non-negative 32-bit ints; the
    result is the new 8-word state. This is the primitive behind the
    zkVM's SHA accelerator ecall — callers are responsible for padding.
    Raises [Invalid_argument] on wrong shapes. *)

val reference_compress_words : int array -> int array -> int array
(** [reference_compress_words] is {!compress_words} on the OCaml
    rounds, whatever {!kernel} is, and without counting a
    compression: the reference the hardware kernel is tested
    against. *)
