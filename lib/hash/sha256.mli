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

val digest64_into :
  ctx -> src:bytes -> src_pos:int -> dst:bytes -> dst_pos:int -> unit
(** [digest64_into ctx ~src ~src_pos ~dst ~dst_pos] writes the SHA-256
    of the 64 bytes [src.[src_pos .. src_pos+63]] into
    [dst.[dst_pos .. dst_pos+31]]: the Merkle node hash over two
    adjacent child digests. [dst] may overlap [src]. [ctx] is working
    storage: any message in progress is discarded and [ctx] is left
    finalized, so one context serves a whole loop of calls but must
    never be shared between domains. Counts two compressions, like the streamed
    hash of the same bytes, and allocates nothing. Raises
    [Invalid_argument] when either window is out of range. *)

val node64_into :
  ctx -> src:bytes -> src_pos:int -> dst:bytes -> dst_pos:int -> unit
(** [node64_into ctx ~src ~src_pos ~dst ~dst_pos] writes one
    compression of the 64 bytes [src.[src_pos .. src_pos+63]], from the
    chaining value {!node_iv}, into [dst.[dst_pos .. dst_pos+31]]: the
    proof system's trace-commitment node hash. It is not the SHA-256 of
    any message. Its contract is {!digest64_into}'s ([dst] may overlap
    [src], [ctx] is working storage left finalized, nothing is
    allocated, out-of-range windows raise [Invalid_argument]), but it
    counts one compression. *)

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
(** The chaining value {!node64_into} starts from: the state after
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
