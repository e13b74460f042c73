(** Reusable ZR0 assembly routines for zkflow guests.

    Each [*_fn] value is a labelled subroutine to splice once into a
    guest program; call it with [Asm.call "gl_..."]. Calling
    convention: arguments in a0–a3, result in a0 or memory; routines
    clobber a0–a5, t0–t6 and s2–s8 and must only be called from the
    guest's top level (call depth 1, no stack). Registers s0, s1,
    s9–s11, sp, gp, tp are callee-preserved by construction (never
    touched).

    Digest layout convention: a 32-byte digest is 8 consecutive words,
    each the big-endian interpretation of the corresponding 4 digest
    bytes — identical to what the SHA ecall writes, so digests compare
    word-for-word against host-side [Digest32] values packed with
    {!words_of_digest}. *)

val leaf_domain_words : int array
(** The 3 words of the Merkle leaf-domain tag ("zkflow.lf.v1"),
    matching [Zkflow_merkle.Tree.leaf_hash]. *)

val empty_leaf_words : int array
(** The 8 words of the dense-tree padding digest
    ([Zkflow_merkle.Tree.empty_leaf]). *)

val words_of_digest : bytes -> int array
(** [words_of_digest d] packs a 32-byte digest into 8 words with the
    layout above. Raises [Invalid_argument] on wrong length. *)

val digest_of_words : int array -> bytes
(** Inverse of {!words_of_digest} (8 words → 32 bytes). *)

val store_constant_words : base:Isa.reg -> off:int -> tmp:Isa.reg -> int array -> Asm.item
(** Emit [li tmp w; sw tmp base (off+i)] for each word. *)

val entry_stride : int
(** [11]: entries handed to {!read_entries_fn} and {!leaf_hashes_fn}
    lie this many words apart, each 8-word entry after the 3 words its
    domain tag is written to. *)

val read_words_fn : Asm.item
(** ["gl_read_words"]: a0 = destination address, a1 = word count;
    reads that many input words into memory, up to eight per block
    read ecall. *)

val read_entries_fn : Asm.item
(** ["gl_read_entries"]: a0 = address of entry 0, a1 = entry count;
    reads 8 input words into each entry, entries {!entry_stride} words
    apart, one block read ecall per entry. *)

val cmp8_fn : Asm.item
(** ["gl_cmp8"]: a0, a1 = addresses of 8-word digests; returns a0 = 1
    when equal, 0 otherwise. Straight-line: 33 rows per call, the
    [ret] included, whatever the digests hold. *)

val leaf_hashes_fn : Asm.item
(** ["gl_leaf_hashes"]: a0 = address of entry 0 (8-word entries,
    {!entry_stride} words apart), a1 = entry count, a2 = output digest
    array (8 words each). Computes the domain-tagged Merkle leaf hash
    of every entry where it lies: it writes {!leaf_domain_words} into
    the 3 words before the entry and hashes the 11. Matches
    [Zkflow_merkle.Tree.of_leaves] on the entry bytes. *)

val merkle_root_fn : Asm.item
(** ["gl_merkle_root"]: a0 = leaf-digest array base, a1 = leaf count
    (≥ 1). Reduces in place — the array is destroyed — leaving the
    root digest in the first 8 words. Pads to a power of two with
    {!empty_leaf_words}, matching [Zkflow_merkle.Tree.of_leaf_hashes]. *)

val commit_words_fn : Asm.item
(** ["gl_commit_words"]: a0 = address, a1 = count; journals the
    words in order, up to eight per block commit ecall. *)

val all_fns : Asm.item
(** All routines above, for splicing at the end of a guest. *)
