open Asm

let words_of_bytes b =
  if Bytes.length b mod 4 <> 0 then invalid_arg "Guestlib.words_of_bytes";
  Array.init (Bytes.length b / 4) (fun i ->
      Int32.to_int (Bytes.get_int32_be b (4 * i)) land 0xffffffff)

let words_of_digest d =
  if Bytes.length d <> 32 then invalid_arg "Guestlib.words_of_digest: need 32 bytes";
  words_of_bytes d

let digest_of_words ws =
  if Array.length ws <> 8 then invalid_arg "Guestlib.digest_of_words: need 8 words";
  let b = Bytes.create 32 in
  Array.iteri (fun i w -> Bytes.set_int32_be b (4 * i) (Int32.of_int (w land 0xffffffff))) ws;
  b

let leaf_domain_words = words_of_bytes (Bytes.of_string "zkflow.lf.v1")

let empty_leaf_words =
  words_of_digest
    (Zkflow_hash.Digest32.unsafe_to_bytes Zkflow_merkle.Tree.empty_leaf)

let store_constant_words ~base ~off ~tmp ws =
  block
    (Array.to_list
       (Array.mapi (fun i w -> block [ li tmp w; sw tmp base (off + i) ]) ws))

let entry_stride = Array.length leaf_domain_words + 8

(* a0 = address, a1 = count: the words in blocks of up to eight, one
   block call per trace row. *)
let block_words_fn name io =
  let l suffix = name ^ "." ^ suffix in
  block
    [
      label name;
      mv s3 a1;
      mv a1 a0;
      li s4 Ecall.max_block;
      label (l "loop");
      beq s3 zero (l "done");
      mv a2 s3;
      bgeu s4 s3 (l "block");
      mv a2 s4;
      label (l "block");
      io a1 a2;
      add a1 a1 a2;
      sub s3 s3 a2;
      j (l "loop");
      label (l "done");
      ret;
    ]

let read_words_fn =
  block_words_fn "gl_read_words" (fun dst count -> read_block ~dst ~count)

let read_entries_fn =
  block
    [
      label "gl_read_entries";
      mv s3 a1;
      mv a1 a0;
      li a2 8;
      label "gl_read_entries.loop";
      beq s3 zero "gl_read_entries.done";
      read_block ~dst:a1 ~count:a2;
      addi a1 a1 entry_stride;
      addi s3 s3 (-1);
      j "gl_read_entries.loop";
      label "gl_read_entries.done";
      ret;
    ]

(* Straight-line: the first word pair's xor seeds the accumulator t2,
   each later pair's xor is or-ed into it, and a0 = (t2 < 1). *)
let cmp8_fn =
  let word i =
    let lw2 = [ lw t0 a0 i; lw t1 a1 i ] in
    if i = 0 then lw2 @ [ xor t2 t0 t1 ] else lw2 @ [ xor t0 t0 t1; or_ t2 t2 t0 ]
  in
  block ((label "gl_cmp8" :: List.concat (List.init 8 word)) @ [ sltiu a0 t2 1; ret ])

(* Each entry is hashed where it lies: its tag is written into the
   three words before it, and one SHA ecall reads the eleven. *)
let leaf_hashes_fn =
  let tag = leaf_domain_words in
  block
    [
      label "gl_leaf_hashes";
      mv s3 a1;
      addi a1 a0 (-Array.length tag);
      mv a3 a2;
      li a2 entry_stride;
      li s5 tag.(0);
      li s6 tag.(1);
      li s7 tag.(2);
      label "gl_leaf_hashes.loop";
      beq s3 zero "gl_leaf_hashes.done";
      sw s5 a1 0;
      sw s6 a1 1;
      sw s7 a1 2;
      sha ~src:a1 ~words:a2 ~dst:a3;
      addi a1 a1 entry_stride;
      addi a3 a3 8;
      addi s3 s3 (-1);
      j "gl_leaf_hashes.loop";
      label "gl_leaf_hashes.done";
      ret;
    ]

let merkle_root_fn =
  block
    [
      label "gl_merkle_root";
      mv s2 a0;
      mv s3 a1;
      (* s4 := next power of two >= count *)
      li s4 1;
      label "gl_merkle_root.pow";
      bgeu s4 s3 "gl_merkle_root.padfill";
      slli s4 s4 1;
      j "gl_merkle_root.pow";
      label "gl_merkle_root.padfill";
      mv s5 s3;
      label "gl_merkle_root.fill";
      bgeu s5 s4 "gl_merkle_root.levels";
      slli t0 s5 3;
      add t0 t0 s2;
      store_constant_words ~base:t0 ~off:0 ~tmp:t1 empty_leaf_words;
      addi s5 s5 1;
      j "gl_merkle_root.fill";
      (* Reduce level by level: pair (2i, 2i+1) → i via one SHA of the
         16 contiguous words. In-place is safe: dst 8i ≤ src 16i and
         the ecall reads the whole block before writing. *)
      label "gl_merkle_root.levels";
      li t0 1;
      bgeu t0 s4 "gl_merkle_root.done";
      srli s5 s4 1;
      li s6 0;
      label "gl_merkle_root.pairs";
      bgeu s6 s5 "gl_merkle_root.next";
      slli t2 s6 4;
      add t2 t2 s2;
      slli t3 s6 3;
      add t3 t3 s2;
      li t4 16;
      sha ~src:t2 ~words:t4 ~dst:t3;
      addi s6 s6 1;
      j "gl_merkle_root.pairs";
      label "gl_merkle_root.next";
      mv s4 s5;
      j "gl_merkle_root.levels";
      label "gl_merkle_root.done";
      ret;
    ]

let commit_words_fn =
  block_words_fn "gl_commit_words" (fun src count -> commit_block ~src ~count)

let all_fns =
  block
    [
      read_words_fn;
      read_entries_fn;
      cmp8_fn;
      leaf_hashes_fn;
      merkle_root_fn;
      commit_words_fn;
    ]
