module D = Zkflow_hash.Digest32
module Sha256 = Zkflow_hash.Sha256
module Bytesx = Zkflow_util.Bytesx

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

let leaves_into ctx data ~dst ~lo ~hi =
  Sha256.leaves_into ctx ~prefix:leaf_domain data ~dst ~lo ~hi

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

(* The level at which the paths of indices [a] and [b] join in a tree
   of depth [d]: one above the highest of their low [d] bits that
   differ, or 0 when those bits agree. Below it, at level [m - 1], the
   two paths' nodes are each other's siblings. *)
let meet_level a b d =
  let rec go l = if l < 0 then 0 else if bit (a lxor b) l = 1 then l + 1 else go (l - 1) in
  go (d - 1)

let same_digest a b =
  a == b || Bytesx.equal_sub (D.unsafe_to_bytes a) 0 (D.unsafe_to_bytes b) 0 32

let slot_is nodes l d = Bytesx.equal_sub nodes (32 * l) (D.unsafe_to_bytes d) 0 32

(* In index order, each opening is compared with the previous one,
   which was accepted and whose path nodes are in [prev]. When their
   paths join at level [m ≥ 1], the opening climbs only to level
   [m − 1], where its node and its sibling must be the previous
   opening's sibling and node: the two then hash the same 64 bytes at
   [m − 1]. When [m = 0] (the same position), its leaf digest must be
   the previous one's. Either way its siblings from [m] up must equal
   the previous opening's too, and since the index bits from [m] up
   agree, every node above is the previous opening's, root included:
   it verifies alone. Otherwise it climbs the rest of its path and must
   reach [root] itself. So an opening is accepted exactly when
   [verify_data] accepts it, with no appeal to collision resistance,
   and each distinct node above the leaves is hashed once. An opening
   whose leaf bytes equal the previous opening's reuses that leaf
   digest. *)
let verify_data_all ~node ~root openings =
  let order = Array.copy openings in
  Array.stable_sort (fun (_, a) (_, b) -> Int.compare a.index b.index) order;
  let slots = 1 + Array.fold_left (fun m (_, t) -> max m (depth t)) 0 order in
  let ctx = Sha256.init () and pair = Bytes.create 64 in
  let root = D.unsafe_to_bytes root in
  let prev = ref (Bytes.create (32 * slots)) and cur = ref (Bytes.create (32 * slots)) in
  let rec go k =
    k = Array.length order
    ||
    let data, t = order.(k) and nodes = !cur in
    let d = depth t in
    let pdata, p = if k > 0 then order.(k - 1) else (data, t) in
    let shares = k > 0 && depth p = d in
    let m = if shares then meet_level p.index t.index d else d + 1 in
    let top = max 0 (m - 1) in
    if k > 0 && (pdata == data || Bytes.equal pdata data) then
      Bytes.blit !prev 0 nodes 0 32
    else leaf_hash_into ctx data ~dst:nodes ~dst_pos:0;
    climb ~node ctx pair nodes t 0 top;
    let rec siblings_agree l =
      l = d || (same_digest t.siblings.(l) p.siblings.(l) && siblings_agree (l + 1))
    in
    let joins =
      shares
      && (if m = 0 then Bytesx.equal_sub nodes 0 !prev 0 32
          else slot_is nodes top p.siblings.(top) && slot_is !prev top t.siblings.(top))
      && siblings_agree m
    in
    let ok =
      if joins then begin
        Bytes.blit !prev (32 * (top + 1)) nodes (32 * (top + 1)) (32 * (d - top));
        true
      end
      else begin
        climb ~node ctx pair nodes t top d;
        Bytesx.equal_sub nodes (32 * d) root 0 32
      end
    in
    cur := !prev;
    prev := nodes;
    ok && go (k + 1)
  in
  go 0

let encode t =
  let buf = Buffer.create (8 + (32 * Array.length t.siblings)) in
  Zkflow_util.Varint.write buf t.index;
  Zkflow_util.Varint.write buf (Array.length t.siblings);
  Array.iter (fun d -> Buffer.add_bytes buf (D.unsafe_to_bytes d)) t.siblings;
  Buffer.to_bytes buf

let decode b off =
  match
    let index, off = Zkflow_util.Varint.read b off in
    let count, off = Zkflow_util.Varint.read b off in
    if count > 64 then Error "Merkle proof: implausible depth"
    else if off + (32 * count) > Bytes.length b then Error "Merkle proof: truncated"
    else begin
      let siblings =
        Array.init count (fun i -> D.of_bytes (Bytes.sub b (off + (32 * i)) 32))
      in
      Ok ({ index; siblings }, off + (32 * count))
    end
  with
  | result -> result
  | exception Invalid_argument msg -> Error msg
