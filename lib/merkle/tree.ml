module D = Zkflow_hash.Digest32
module Pool = Zkflow_parallel.Pool
module Obs = Zkflow_obs

(* Interior + leaf hashes; [sha256.compressions] counts blocks, this
   counts Merkle nodes, so the ratio exposes padding overhead. *)
let m_nodes = Obs.Metric.counter "merkle.nodes_hashed"

(* All levels live in one flat buffer of 32-byte slots: the padded leaf
   level first, then each parent level, ending with the root. For a
   padded size p that is 2p − 1 slots; keeping digests unboxed matters
   because the proof layer builds trees over millions of trace rows. *)
type t = {
  buf : Bytes.t;
  level_off : int array; (* slot offset of each level; length depth+1 *)
  size : int;            (* real (unpadded) leaf count *)
  depth : int;
}

let leaf_domain = Bytes.of_string "zkflow.lf.v1"

let leaf_hash data =
  D.of_bytes (Zkflow_hash.Sha256.digest_concat [ leaf_domain; data ])

let empty_leaf = D.hash_string "zkflow.empty-leaf"

let next_pow2 n =
  if n > max_int / 2 then
    (* doubling past max_int/2 wraps negative and loops forever *)
    invalid_arg "Tree.next_pow2: leaf count exceeds max_int / 2";
  let rec go k = if k >= n then k else go (k * 2) in
  if n <= 1 then 1 else go 1

let log2 p =
  let rec go k v = if v = 1 then k else go (k + 1) (v / 2) in
  go 0 p

let level_offsets padded depth =
  let level_off = Array.make (depth + 1) 0 in
  let off = ref 0 and width = ref padded in
  for level = 0 to depth do
    level_off.(level) <- !off;
    off := !off + !width;
    width := !width / 2
  done;
  level_off

(* Hash parent slots [lo, hi) of one level: parent [i] is the node
   hash of the 64 child bytes at slot [src + 2i] of [sbuf], written to
   slot [dst + i] of [dbuf]. Each chunk owns its SHA-256 ctx — contexts
   must never be shared between workers. *)
let hash_range ~sbuf ~src ~dbuf ~dst lo hi =
  let ctx = Zkflow_hash.Sha256.init () in
  for i = lo to hi - 1 do
    Zkflow_hash.Sha256.digest64_into ctx ~src:sbuf ~src_pos:(32 * (src + (2 * i)))
      ~dst:dbuf ~dst_pos:(32 * (dst + i))
  done;
  Obs.Metric.add m_nodes (hi - lo)

(* Workers write disjoint 32-byte parent slots, so a level can be
   hashed in parallel chunks. Small top levels fall under the chunk
   floor and run sequentially through the same code path. *)
let build_levels buf level_off depth =
  for level = 0 to depth - 1 do
    let src = level_off.(level) and dst = level_off.(level + 1) in
    let width = level_off.(level + 1) - level_off.(level) in
    Pool.parallel_for ~min_chunk:1024 (width / 2)
      (hash_range ~sbuf:buf ~src ~dbuf:buf ~dst)
  done

let of_leaf_hashes hs =
  let t0 = Obs.Span.start () in
  let n = Array.length hs in
  let padded = next_pow2 n in
  let depth = log2 padded in
  let level_off = level_offsets padded depth in
  let buf = Bytes.create (32 * ((2 * padded) - 1)) in
  for i = 0 to padded - 1 do
    let d = if i < n then hs.(i) else empty_leaf in
    Bytes.blit (D.unsafe_to_bytes d) 0 buf (32 * i) 32
  done;
  build_levels buf level_off depth;
  if t0 <> 0 then Obs.Span.finish "merkle.build" ~args:[ ("leaves", n) ] t0;
  { buf; level_off; size = n; depth }

let hash_leaves data =
  let n = Array.length data in
  if n = 0 then [||]
  else begin
    let hs = Array.make n empty_leaf in
    (* Same bytes as [leaf_hash]: domain tag then payload, one reused
       ctx per chunk. *)
    Pool.parallel_for ~min_chunk:512 n (fun lo hi ->
        let ctx = Zkflow_hash.Sha256.init () in
        for i = lo to hi - 1 do
          Zkflow_hash.Sha256.reset ctx;
          Zkflow_hash.Sha256.update ctx leaf_domain;
          Zkflow_hash.Sha256.update ctx data.(i);
          hs.(i) <- D.of_bytes (Zkflow_hash.Sha256.finalize ctx)
        done;
        Obs.Metric.add m_nodes (hi - lo));
    hs
  end

let of_leaves data = of_leaf_hashes (hash_leaves data)

let read_slot t slot = D.of_bytes (Bytes.sub t.buf (32 * slot) 32)
let root t = read_slot t t.level_off.(t.depth)
let size t = t.size
let depth t = t.depth

let node t ~level i =
  if level < 0 || level > t.depth then invalid_arg "Tree.node: level out of range";
  let width = 1 lsl (t.depth - level) in
  if i < 0 || i >= width then invalid_arg "Tree.node: index out of range";
  read_slot t (t.level_off.(level) + i)

let leaf t i =
  if i < 0 || i >= t.size then invalid_arg "Tree.leaf: index out of range";
  read_slot t i

let prove t i =
  if i < 0 || i >= max 1 t.size then invalid_arg "Tree.prove: index out of range";
  let siblings = Array.make t.depth empty_leaf in
  let idx = ref i in
  for level = 0 to t.depth - 1 do
    siblings.(level) <- read_slot t (t.level_off.(level) + (!idx lxor 1));
    idx := !idx lsr 1
  done;
  { Proof.index = i; siblings }

(* ---- node snapshots ----

   The whole flat buffer, varint-size-prefixed. Interior hashes are
   persisted verbatim so a restore is a memcpy, not a rebuild; the
   consumer (checkpoint rows) already guards the bytes with a
   checksum, so the only validation needed here is structural. *)

let to_snapshot t =
  let buf = Buffer.create (Bytes.length t.buf + 8) in
  Zkflow_util.Varint.write buf t.size;
  Buffer.add_bytes buf t.buf;
  Buffer.to_bytes buf

let unsafe_buffer t = t.buf

let unsafe_of_buffer ~size buf =
  if size < 0 then invalid_arg "Tree.unsafe_of_buffer: negative size";
  let padded = next_pow2 size in
  let depth = log2 padded in
  if Bytes.length buf <> 32 * ((2 * padded) - 1) then
    invalid_arg "Tree.unsafe_of_buffer: buffer does not match size";
  { buf; level_off = level_offsets padded depth; size; depth }

let of_snapshot b =
  match Zkflow_util.Varint.read b 0 with
  | exception _ -> Error "tree snapshot: truncated size"
  | size, off ->
    if size < 0 || size > max_int / 2 then Error "tree snapshot: implausible size"
    else begin
      let padded = next_pow2 size in
      let expect = 32 * ((2 * padded) - 1) in
      if Bytes.length b - off <> expect then Error "tree snapshot: length mismatch"
      else Ok (unsafe_of_buffer ~size (Bytes.sub b off expect))
    end

let root_of_leaf_hashes hs =
  let t0 = Obs.Span.start () in
  let n = Array.length hs in
  let padded = next_pow2 n in
  let buf = Bytes.create (32 * padded) in
  for i = 0 to padded - 1 do
    let d = if i < n then hs.(i) else empty_leaf in
    Bytes.blit (D.unsafe_to_bytes d) 0 buf (32 * i) 32
  done;
  (* Ping-pong between two buffers: in-place halving would let one
     chunk overwrite parent slots another chunk still reads as
     children. The hash inputs are identical either way. *)
  let src = ref buf and dst = ref (Bytes.create (32 * (padded / 2))) in
  let width = ref padded in
  while !width > 1 do
    let s = !src and d = !dst in
    Pool.parallel_for ~min_chunk:1024 (!width / 2)
      (hash_range ~sbuf:s ~src:0 ~dbuf:d ~dst:0);
    src := d;
    dst := s;
    width := !width / 2
  done;
  if t0 <> 0 then Obs.Span.finish "merkle.root" ~args:[ ("leaves", n) ] t0;
  D.of_bytes (Bytes.sub !src 0 32)
