module D = Zkflow_hash.Digest32
module Pool = Zkflow_parallel.Pool
module Obs = Zkflow_obs

(* Shares the global node count with Tree so the sha256.compressions /
   merkle.nodes_hashed ratio stays meaningful, and splits the
   incremental economics into its own pair: nodes actually re-hashed
   by a flush vs interior nodes and leaves carried over unchanged. *)
let m_nodes = Obs.Metric.counter "merkle.nodes_hashed"
let m_rehashed = Obs.Metric.counter "merkle.nodes_rehashed"
let m_reused = Obs.Metric.counter "merkle.nodes_reused"

type stats = { rehashed : int; reused : int }

(* Same flat layout as [Tree]: all levels in one buffer of 32-byte
   slots, leaf level first. The store mutates slots in place and keeps
   a dirty set of leaf indices; [commit] re-hashes only the merged
   root-paths of the dirty leaves, then hands the buffer to an
   immutable [Tree.t]. Buffers are shared copy-on-write: adopting a
   tree ([of_tree]) or committing one marks the buffer shared, and the
   next mutation copies — so committed trees are never mutated and an
   update-free round costs no copy at all. *)
type t = {
  mutable buf : Bytes.t;
  mutable level_off : int array;
  mutable padded : int;
  mutable depth : int;
  mutable size : int;
  mutable shared : bool;
  dirty : (int, unit) Hashtbl.t;
  mutable last : stats;
}

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

(* empty_sub.(l): root of a height-l subtree whose leaves are all the
   padding digest — what the right half of every level holds after a
   growth doubling. *)
let empty_sub =
  lazy
    (let a = Array.make 63 Tree.empty_leaf in
     for l = 1 to 62 do
       a.(l) <- D.combine a.(l - 1) a.(l - 1)
     done;
     a)

let of_tree tree =
  let size = Tree.size tree in
  let padded = Tree.next_pow2 size in
  let depth = log2 padded in
  {
    buf = Tree.unsafe_buffer tree;
    level_off = level_offsets padded depth;
    padded;
    depth;
    size;
    shared = true;
    dirty = Hashtbl.create 64;
    last = { rehashed = 0; reused = 0 };
  }

let create () = of_tree (Tree.of_leaf_hashes ~node:Zkflow_hash.Sha256.digest64 [||])
let size t = t.size
let last_stats t = t.last

let ensure_owned t =
  if t.shared then begin
    t.buf <- Bytes.copy t.buf;
    t.shared <- false
  end

let set_slot t slot d = Bytes.blit (D.unsafe_to_bytes d) 0 t.buf (32 * slot) 32
let read_slot t slot = D.of_bytes (Bytes.sub t.buf (32 * slot) 32)

let set_leaf t i d =
  if i < 0 || i >= t.size then invalid_arg "Incremental.set_leaf: index out of range";
  if not (D.equal (read_slot t i) d) then begin
    ensure_owned t;
    set_slot t i d;
    Hashtbl.replace t.dirty i ()
  end

(* Double the padded width: each old level becomes the left half of
   the corresponding new level, the right halves are the precomputed
   empty-subtree defaults, and the new root slot combines the two —
   every slot stays coherent even before the next flush. The append
   that triggered the growth lands in the right half, so its dirty
   path re-hashes the new top as a matter of course. *)
let grow t =
  let padded' = t.padded * 2 in
  let depth' = t.depth + 1 in
  let off' = level_offsets padded' depth' in
  let buf' = Bytes.create (32 * ((2 * padded') - 1)) in
  let defaults = Lazy.force empty_sub in
  for level = 0 to t.depth do
    let w = t.padded lsr level in
    Bytes.blit t.buf (32 * t.level_off.(level)) buf' (32 * off'.(level)) (32 * w);
    let d = D.unsafe_to_bytes defaults.(level) in
    for j = w to (2 * w) - 1 do
      Bytes.blit d 0 buf' (32 * (off'.(level) + j)) 32
    done
  done;
  let old_root = read_slot t t.level_off.(t.depth) in
  Bytes.blit
    (D.unsafe_to_bytes (D.combine old_root defaults.(t.depth)))
    0 buf'
    (32 * off'.(depth'))
    32;
  t.buf <- buf';
  t.level_off <- off';
  t.padded <- padded';
  t.depth <- depth';
  t.shared <- false

let append t d =
  if t.size = t.padded then grow t else ensure_owned t;
  set_slot t t.size d;
  Hashtbl.replace t.dirty t.size ();
  t.size <- t.size + 1

(* Re-hash the merged dirty root-paths, bottom-up: the frontier at
   level l+1 is the deduplicated [i lsr 1] image of the frontier at
   level l (sorted, so siblings are adjacent and collapse into one
   parent — the merge rule that makes a batch of k updates cost
   O(k·log n) instead of k separate log-n walks). Each level's parents
   occupy disjoint 32-byte slots, so the pool hashes them in chunks. *)
let flush t =
  if Hashtbl.length t.dirty > 0 then begin
    ensure_owned t;
    let t0 = Obs.Span.start () in
    let touched = Hashtbl.length t.dirty in
    let frontier = Array.make touched 0 in
    let k = ref 0 in
    Hashtbl.iter
      (fun i () ->
        frontier.(!k) <- i;
        incr k)
      t.dirty;
    Array.sort Int.compare frontier;
    let buf = t.buf in
    let rehashed = ref 0 in
    let cur = ref frontier in
    for level = 0 to t.depth - 1 do
      let prev = !cur in
      let m = Array.length prev in
      let parents = Array.make m 0 in
      let np = ref 0 in
      for j = 0 to m - 1 do
        let p = prev.(j) lsr 1 in
        if !np = 0 || parents.(!np - 1) <> p then begin
          parents.(!np) <- p;
          incr np
        end
      done;
      let parents = if !np = m then parents else Array.sub parents 0 !np in
      let src = t.level_off.(level) and dst = t.level_off.(level + 1) in
      Pool.parallel_for ~min_chunk:1024 !np (fun lo hi ->
          let ctx = Zkflow_hash.Sha256.init () in
          for j = lo to hi - 1 do
            let p = parents.(j) in
            Zkflow_hash.Sha256.digest64_into ctx ~src:buf ~src_pos:(32 * (src + (2 * p)))
              ~dst:buf ~dst_pos:(32 * (dst + p))
          done;
          Obs.Metric.add m_nodes (hi - lo));
      rehashed := !rehashed + !np;
      cur := parents
    done;
    Hashtbl.reset t.dirty;
    let reused = max 0 (t.padded - 1 - !rehashed) + max 0 (t.size - touched) in
    t.last <- { rehashed = !rehashed; reused };
    Obs.Metric.add m_rehashed !rehashed;
    Obs.Metric.add m_reused reused;
    if t0 <> 0 then
      Obs.Span.finish "merkle.incr_update"
        ~args:[ ("leaves", t.size); ("dirty", touched); ("rehashed", !rehashed) ]
        t0
  end

let root t =
  flush t;
  read_slot t t.level_off.(t.depth)

let commit t =
  flush t;
  t.shared <- true;
  Tree.unsafe_of_buffer ~size:t.size t.buf
