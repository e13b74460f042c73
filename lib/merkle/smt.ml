module D = Zkflow_hash.Digest32

let depth = 56

let empty_leaf_hash = D.hash_string "zkflow.smt.empty"

(* defaults.(l) is the digest of an all-empty subtree of height l. *)
let defaults =
  let a = Array.make (depth + 1) empty_leaf_hash in
  for l = 1 to depth do
    a.(l) <- D.combine a.(l - 1) a.(l - 1)
  done;
  a

let empty_root = defaults.(depth)

type t = {
  (* Non-default internal nodes, keyed by (level, prefix). Level 0 holds
     leaf digests; prefix at level l is the index shifted right l bits. *)
  nodes : (int * int, D.t) Hashtbl.t;
  values : (int, bytes * bytes) Hashtbl.t; (* index -> (key, value) *)
}

let create () = { nodes = Hashtbl.create 64; values = Hashtbl.create 64 }

let key_index key =
  let d = Zkflow_hash.Sha256.digest key in
  (* First 7 bytes, big-endian: a 56-bit non-negative int. *)
  let acc = ref 0 in
  for i = 0 to 6 do
    acc := (!acc lsl 8) lor Char.code (Bytes.get d i)
  done;
  !acc

let node t level prefix =
  match Hashtbl.find_opt t.nodes (level, prefix) with
  | Some d -> d
  | None -> defaults.(level)

let leaf_domain = Bytes.of_string "zkflow.smt.leaf"

let leaf_hash_of_value v =
  D.of_bytes (Zkflow_hash.Sha256.digest_concat [ leaf_domain; v ])

let update_path t index leaf_digest =
  let set_node level prefix d =
    if D.equal d defaults.(level) then Hashtbl.remove t.nodes (level, prefix)
    else Hashtbl.replace t.nodes (level, prefix) d
  in
  set_node 0 index leaf_digest;
  let cur = ref leaf_digest and idx = ref index in
  for level = 0 to depth - 1 do
    let sibling = node t level (!idx lxor 1) in
    cur :=
      if !idx land 1 = 0 then D.combine !cur sibling else D.combine sibling !cur;
    idx := !idx lsr 1;
    set_node (level + 1) !idx !cur
  done

let set t ~key v =
  let index = key_index key in
  (match Hashtbl.find_opt t.values index with
   | Some (k0, _) when not (Bytes.equal k0 key) ->
     (* 56-bit path collision between distinct keys: astronomically
        unlikely for real traffic, but fail loudly rather than corrupt. *)
     invalid_arg "Smt.set: key path collision"
   | _ -> ());
  Hashtbl.replace t.values index (Bytes.copy key, Bytes.copy v);
  update_path t index (leaf_hash_of_value v)

let remove t ~key =
  let index = key_index key in
  Hashtbl.remove t.values index;
  update_path t index empty_leaf_hash

let find t ~key =
  match Hashtbl.find_opt t.values (key_index key) with
  | Some (k0, v) when Bytes.equal k0 key -> Some (Bytes.copy v)
  | _ -> None

let root t = node t depth 0
let cardinal t = Hashtbl.length t.values

let prove t ~key =
  let index = key_index key in
  let siblings = Array.make depth empty_leaf_hash in
  let idx = ref index in
  for level = 0 to depth - 1 do
    siblings.(level) <- node t level (!idx lxor 1);
    idx := !idx lsr 1
  done;
  { Proof.index = index; siblings }

let verify_member ~root ~key ~value proof =
  proof.Proof.index = key_index key
  && Array.length proof.Proof.siblings = depth
  && D.equal root
       (Proof.compute_root ~node:Zkflow_hash.Sha256.digest64 proof
          (leaf_hash_of_value value))

let verify_absent ~root ~key proof =
  proof.Proof.index = key_index key
  && Array.length proof.Proof.siblings = depth
  && D.equal root
       (Proof.compute_root ~node:Zkflow_hash.Sha256.digest64 proof empty_leaf_hash)

let fold f t init =
  Hashtbl.fold (fun _ (k, v) acc -> f k v acc) t.values init
