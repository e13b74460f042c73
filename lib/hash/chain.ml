type t = Digest32.t

let domain = Bytes.of_string "zkflow.chain"
let genesis = Digest32.hash_string "zkflow.chain.genesis"
let of_digest d = d

let extend t item =
  Digest32.of_bytes
    (Sha256.digest_concat [ domain; Digest32.unsafe_to_bytes t; item ])

let extend_digest t d = extend t (Digest32.unsafe_to_bytes d)

(* Each link hashes "zkflow.chain" ‖ head ‖ word, 48 bytes and one
   block, so the links run in one buffer through one context: the new
   head is written over the old one in place. *)
let extend_words t words =
  let buf = Bytes.create 48 and ctx = Sha256.init () in
  Bytes.blit domain 0 buf 0 12;
  Bytes.blit (Digest32.unsafe_to_bytes t) 0 buf 12 32;
  for i = 0 to Array.length words - 1 do
    Bytes.set_int32_be buf 44 (Int32.of_int (words.(i) land 0xffffffff));
    Sha256.reset ctx;
    Sha256.update ctx buf;
    Sha256.finalize_into ctx ~dst:buf ~dst_pos:12
  done;
  Digest32.of_bytes (Bytes.sub buf 12 32)
let head t = t
let of_list items = List.fold_left extend genesis items
let equal = Digest32.equal
