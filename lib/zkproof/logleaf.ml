module Column = Zkflow_util.Column
module Trace = Zkflow_zkvm.Trace

let per_leaf = 4
let count n = (n + per_leaf - 1) / per_leaf
(* The entries leaf [k] of a log of [n] entries holds. *)
let entries_in ~n k = Int.min per_leaf (n - (per_leaf * k))

let leaf_of j = j / per_leaf

let leaf_set entries =
  let out = Array.make (Array.length entries) 0 and k = ref 0 in
  Array.iter
    (fun j ->
      let leaf = leaf_of j in
      if !k = 0 || out.(!k - 1) <> leaf then begin
        out.(!k) <- leaf;
        incr k
      end)
    entries;
  Array.sub out 0 !k

let pack (entries : Column.t) =
  let n = Column.length entries in
  { entries with off = Array.init (count n + 1) (fun k -> entries.off.(Int.min (per_leaf * k) n)) }

let gather (entries : Column.t) perm =
  let n = Array.length perm in
  let src = entries.data and src_off = entries.off in
  let data = Bytes.create src_off.(Column.length entries)
  and off = Array.make (count n + 1) 0 in
  let at = ref 0 in
  Array.iteri
    (fun j i ->
      if i < 0 || i >= Column.length entries then invalid_arg "Logleaf.gather: index out of range";
      if j mod per_leaf = 0 then off.(j / per_leaf) <- !at;
      let len = src_off.(i + 1) - src_off.(i) in
      Bytes.blit src src_off.(i) data !at len;
      at := !at + len)
    perm;
  off.(count n) <- !at;
  { Column.data = (if !at = Bytes.length data then data else Bytes.sub data 0 !at); off }

let mismatch got expected = Printf.sprintf "%d entries where %d expected" got expected

(* The entries of the set [entries] decoded from the opened leaves,
   each at its rank in [make m]: [shape leaf] is a leaf's entry count
   or its refusal, and [entry leaf pos dst r] reads the entry at [!pos]
   into rank [r] of [dst] and moves [pos] past it. The entries of a
   leaf outside the set are read into a scratch rank, so only the
   set's are kept. A leaf refused whole refuses each of its entries in
   the set. *)
let unpack ~shape ~entry ~make ~n entries opened =
  let m = Array.length entries in
  let ints = make m and refusal = Array.make m "" and scratch = make 1 in
  let k = ref 0 and r = ref 0 in
  while !k < m do
    let leaf = leaf_of entries.(!k) and first = !k in
    while !k < m && leaf_of entries.(!k) = leaf do
      incr k
    done;
    let stop = !k and bytes = opened.(!r) and expected = entries_in ~n leaf in
    incr r;
    match shape bytes with
    | Error msg -> Array.fill refusal first (stop - first) msg
    | Ok got when got <> expected -> Array.fill refusal first (stop - first) (mismatch got expected)
    | Ok _ -> (
      let pos = ref 0 and want = ref first in
      try
        for e = 0 to expected - 1 do
          if !want < stop && entries.(!want) = (per_leaf * leaf) + e then begin
            (match entry bytes pos ints !want with
             | Ok () -> ()
             | Error msg -> refusal.(!want) <- msg);
            incr want
          end
          else ignore (entry bytes pos scratch 0 : (unit, string) result)
        done
      with Invalid_argument msg -> Array.fill refusal first (stop - first) msg)
  done;
  (ints, refusal)

(* Every varint ends on a byte below 0x80 and an entry is four of
   them, so a leaf's entry count is its count of such bytes over four,
   when its last varint is whole and no entry is cut short. *)
let mem_shape leaf =
  let len = Bytes.length leaf and ends = ref 0 in
  for i = 0 to len - 1 do
    if Char.code (Bytes.unsafe_get leaf i) < 0x80 then incr ends
  done;
  if (len > 0 && Char.code (Bytes.get leaf (len - 1)) >= 0x80) || !ends mod 4 <> 0 then
    Error "trailing bytes"
  else Ok (!ends / 4)

let unpack_mem ~n entries opened =
  unpack ~shape:mem_shape ~entry:Trace.read_mem_into ~make:Trace.log_make ~n entries opened

let z_shape leaf =
  let len = Bytes.length leaf in
  if len mod Memcheck.z_bytes <> 0 then Error "trailing bytes" else Ok (len / Memcheck.z_bytes)

let unpack_z ~n entries opened =
  unpack ~shape:z_shape
    ~entry:(fun leaf pos dst s ->
      let at = !pos in
      pos := at + Memcheck.z_bytes;
      Memcheck.decode_z_at leaf at dst s)
    ~make:(fun m -> Array.make (4 * m) 0)
    ~n entries opened
