module D = Zkflow_hash.Digest32
module Sha256 = Zkflow_hash.Sha256
module Bytesx = Zkflow_util.Bytesx
module Pool = Zkflow_parallel.Pool
module Obs = Zkflow_obs

(* Slots filled by hashing and slots copied from their left neighbour.
   A build over n leaves padded to P fills n + P − 1 slots, so the two
   counters sum to that; [sha256.compressions] counts blocks, so the
   ratios expose padding and repetition overhead. *)
let m_nodes = Obs.Metric.counter "merkle.nodes_hashed"
let m_copied = Obs.Metric.counter "merkle.nodes_copied"

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

let leaf_hash = Proof.leaf_hash
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

let rec push cell x =
  let l = Atomic.get cell in
  if not (Atomic.compare_and_set cell l (x :: l)) then push cell x

(* The equal-neighbour rule. Slot [i] of a level, at slot offset [dst]
   of [buf], copies slot [i − 1]'s digest when its input equals slot
   [i − 1]'s ([same i]) and is hashed otherwise. All-padding subtrees
   and runs of repeated leaves thus cost one hash per run. Chunks fill
   disjoint slots in parallel, each in one batch-kernel call
   [hash ctx lo hi] that applies the rule inside its own loop and
   returns the slots it hashed. A chunk whose first slots continue a
   run from the chunk before cannot copy them yet, so it leaves them
   to a sequential pass once the level's chunks have returned: which
   slots are hashed depends on the inputs alone, never on the
   chunking. *)
let fill_level ~min_chunk buf ~dst width ~same ~hash =
  let deferred = Atomic.make [] in
  Pool.parallel_for ~min_chunk width (fun lo hi ->
      let start = ref lo in
      while !start < hi && !start > 0 && same !start do
        incr start
      done;
      if !start > lo then push deferred (lo, !start);
      let hashed = hash (Sha256.init ()) !start hi in
      Obs.Metric.add m_nodes hashed;
      Obs.Metric.add m_copied (hi - lo - hashed));
  List.iter
    (fun (lo, hi) ->
      for i = lo to hi - 1 do
        Bytes.blit buf (32 * (dst + i - 1)) buf (32 * (dst + i)) 32
      done)
    (List.sort compare (Atomic.get deferred))

(* Parent [i] of a level is the node hash, under rule [node], of the 64
   child bytes at slot [src + 2i]; its left neighbour's input sits just
   before them. *)
let build_levels ~node buf level_off depth =
  for level = 0 to depth - 1 do
    let src = level_off.(level) and dst = level_off.(level + 1) in
    let child i = 32 * (src + (2 * i)) in
    fill_level ~min_chunk:1024 buf ~dst ((dst - src) / 2)
      ~same:(fun i -> Bytesx.equal_sub buf (child i) buf (child (i - 1)) 64)
      ~hash:(fun ctx lo hi -> Sha256.level_into node ctx buf ~src ~dst ~lo ~hi)
  done

let alloc n =
  let padded = next_pow2 n in
  let depth = log2 padded in
  {
    buf = Bytes.create (32 * ((2 * padded) - 1));
    level_off = level_offsets padded depth;
    size = n;
    depth;
  }

(* With the real leaf slots of [t] filled: pad the leaf level, hash
   the levels above and close the build span opened at [t0]. *)
let build ~node t0 t =
  let empty = D.unsafe_to_bytes empty_leaf in
  for i = t.size to (1 lsl t.depth) - 1 do
    Bytes.blit empty 0 t.buf (32 * i) 32
  done;
  build_levels ~node t.buf t.level_off t.depth;
  if t0 <> 0 then Obs.Span.finish "merkle.build" ~args:[ ("leaves", t.size) ] t0;
  t

let of_leaves ~node col =
  let t0 = Obs.Span.start () in
  let t = alloc (Zkflow_util.Column.length col) in
  fill_level ~min_chunk:512 t.buf ~dst:0 t.size
    ~same:(fun i -> Zkflow_util.Column.equal_leaves col i (i - 1))
    ~hash:(fun ctx lo hi -> Proof.leaves_into ctx col ~dst:t.buf ~lo ~hi);
  build ~node t0 t

let of_leaf_hashes ~node hs =
  let t0 = Obs.Span.start () in
  let t = alloc (Array.length hs) in
  Array.iteri (fun i d -> Bytes.blit (D.unsafe_to_bytes d) 0 t.buf (32 * i) 32) hs;
  build ~node t0 t

let read_slot t slot = D.of_bytes (Bytes.sub t.buf (32 * slot) 32)
let root t = read_slot t t.level_off.(t.depth)
let size t = t.size
let depth t = t.depth

let node_slot t ~level i =
  if level < 0 || level > t.depth then invalid_arg "Tree.node: level out of range";
  let width = 1 lsl (t.depth - level) in
  if i < 0 || i >= width then invalid_arg "Tree.node: index out of range";
  t.level_off.(level) + i

let node t ~level i = read_slot t (node_slot t ~level i)
let blit_node t ~level i dst pos = Bytes.blit t.buf (32 * node_slot t ~level i) dst pos 32

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
