module D = Zkflow_hash.Digest32
module Sha256 = Zkflow_hash.Sha256

type t = { index : int; siblings : D.t array }

type node = Sha256.node

let depth t = Array.length t.siblings

(* The leaf rule, defined once: SHA-256 of the 12-byte domain tag, then
   the payload. [Tree] hashes its leaves with it straight into its
   level buffer, a chunk of slots per [leaves_into] call. *)
let leaf_domain = Bytes.of_string "zkflow.lf.v1"

let leaf_hash_into ctx data ~dst ~dst_pos =
  Sha256.reset ctx;
  Sha256.update ctx leaf_domain;
  Sha256.update ctx data;
  Sha256.finalize_into ctx ~dst ~dst_pos

let leaves_into ctx col ~dst ~lo ~hi =
  Sha256.leaves_into ctx ~prefix:leaf_domain col ~dst ~lo ~hi

let leaves_array_into ctx leaves ~dst ~lo ~hi =
  Sha256.leaves_array_into ctx ~prefix:leaf_domain leaves ~dst ~lo ~hi

let leaf_hash data =
  let out = Bytes.create 32 in
  leaf_hash_into (Sha256.init ()) data ~dst:out ~dst_pos:0;
  D.of_bytes out

(* Bit [l] of an index names the side of the path's node at level
   [l]; bits past the word are 0, as repeated halving would leave. *)
let bit i l = if l >= Sys.int_size then 0 else (i lsr l) land 1

(* A path's nodes live in one buffer of 32-byte slots, the leaf digest
   in slot 0 and the implied root in slot [depth t]. [climb] fills
   slots [lo + 1 .. hi]: slot [l + 1] is the node hash of slot [l] and
   sibling [l], in the order bit [l] of the index names, under the
   node rule [node]. *)
let climb ~node ctx pair nodes t lo hi =
  for l = lo to hi - 1 do
    let h = 32 * bit t.index l in
    Bytes.blit nodes (32 * l) pair h 32;
    Bytes.blit (D.unsafe_to_bytes t.siblings.(l)) 0 pair (32 - h) 32;
    Sha256.node_into node ctx ~src:pair ~src_pos:0 ~dst:nodes ~dst_pos:(32 * (l + 1))
  done

let path_root ~node t nodes =
  climb ~node (Sha256.init ()) (Bytes.create 64) nodes t 0 (depth t);
  D.of_bytes (Bytes.sub nodes (32 * depth t) 32)

let compute_root ~node t leaf_hash =
  let nodes = Bytes.create (32 * (depth t + 1)) in
  Bytes.blit (D.unsafe_to_bytes leaf_hash) 0 nodes 0 32;
  path_root ~node t nodes

let verify ~node ~root ~leaf_hash t = D.equal root (compute_root ~node t leaf_hash)

let verify_data ~node ~root data t =
  let nodes = Bytes.create (32 * (depth t + 1)) in
  leaf_hash_into (Sha256.init ()) data ~dst:nodes ~dst_pos:0;
  D.equal root (path_root ~node t nodes)
