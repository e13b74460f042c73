module Flowkey = Zkflow_netflow.Flowkey
module Record = Zkflow_netflow.Record
module Tree = Zkflow_merkle.Tree
module D = Zkflow_hash.Digest32

type entry = { key : Flowkey.t; metrics : Record.metrics }

let entry_words e =
  Array.append (Flowkey.to_words e.key)
    [|
      e.metrics.Record.packets; e.metrics.Record.bytes;
      e.metrics.Record.hop_count; e.metrics.Record.losses;
    |]

let entry_of_words w =
  if Array.length w <> 8 then Error "clog entry: need 8 words"
  else
    match Flowkey.of_words (Array.sub w 0 4) with
    | Error e -> Error e
    | Ok key -> (
      match Record.metrics_of_words (Array.sub w 4 4) with
      | Error e -> Error e
      | Ok metrics -> Ok { key; metrics })

let entry_bytes e =
  let ws = entry_words e in
  let b = Bytes.create 32 in
  Array.iteri (fun i w -> Bytes.set_int32_be b (4 * i) (Int32.of_int w)) ws;
  b

let leaf_digest e = Tree.leaf_hash (entry_bytes e)

type t = {
  entries : entry array;
  index : (Flowkey.t, int) Hashtbl.t;
  lazy_tree : Tree.t Lazy.t;
}

let node = Zkflow_hash.Sha256.digest64

let scratch_tree entries =
  Tree.of_leaves ~node
    (Zkflow_util.Column.of_array
       (Zkflow_parallel.Pool.map_array ~min_chunk:2048 entry_bytes entries))

let build entries =
  let index = Hashtbl.create (max 16 (Array.length entries)) in
  Array.iteri (fun i e -> Hashtbl.replace index e.key i) entries;
  { entries; index; lazy_tree = lazy (scratch_tree entries) }

let empty = build [||]
let entries t = Array.copy t.entries
let length t = Array.length t.entries

let of_entries es =
  let t = build (Array.copy es) in
  (* Index insertion already deduplicates keys, so the duplicate check
     is a size comparison — no sorted key list per call. *)
  if Hashtbl.length t.index <> Array.length es then Error "clog: duplicate flow keys"
  else Ok t

let tree t = Lazy.force t.lazy_tree
let root t = Tree.root (tree t)

let find t key =
  Option.map (fun i -> (i, t.entries.(i))) (Hashtbl.find_opt t.index key)

let words t =
  let n = Array.length t.entries in
  let out = Array.make (8 * n) 0 in
  Array.iteri
    (fun i e ->
      let w = entry_words e in
      Array.blit w 0 out (8 * i) 8)
    t.entries;
  out

(* Existing flows accumulate in place, new flows append; the fold
   builds the result's key index as it goes, and its tree is built
   from scratch when first asked for. *)
let apply_batch t records =
  let old_n = Array.length t.entries in
  let table = Hashtbl.copy t.index in
  let metrics = Hashtbl.create (old_n + Array.length records) in
  Array.iteri (fun i e -> Hashtbl.replace metrics i e.metrics) t.entries;
  let new_keys_rev = ref [] in
  let n = ref old_n in
  Array.iter
    (fun (r : Record.t) ->
      match Hashtbl.find_opt table r.Record.key with
      | Some i ->
        Hashtbl.replace metrics i
          (Record.add_metrics (Hashtbl.find metrics i) r.Record.metrics)
      | None ->
        Hashtbl.replace table r.Record.key !n;
        Hashtbl.replace metrics !n r.Record.metrics;
        new_keys_rev := r.Record.key :: !new_keys_rev;
        incr n)
    records;
  let new_keys = Array.of_list (List.rev !new_keys_rev) in
  let final =
    Array.init !n (fun i ->
        let key =
          if i < old_n then t.entries.(i).key else new_keys.(i - old_n)
        in
        { key; metrics = Hashtbl.find metrics i })
  in
  { entries = final; index = table; lazy_tree = lazy (scratch_tree final) }

let apply_batch_rebuild = apply_batch

let empty_root = root empty
