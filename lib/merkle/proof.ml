module D = Zkflow_hash.Digest32

type t = { index : int; siblings : D.t array }

(* The running digest sits in the half of [pair] that the current
   index bit names, the sibling goes in the other half, and each level
   writes its parent straight into the half the next level needs. *)
let compute_root t leaf_hash =
  let ctx = Zkflow_hash.Sha256.init () and pair = Bytes.create 64 in
  let half idx = 32 * (idx land 1) in
  let idx = ref t.index in
  Bytes.blit (D.unsafe_to_bytes leaf_hash) 0 pair (half !idx) 32;
  Array.iter
    (fun sib ->
      Bytes.blit (D.unsafe_to_bytes sib) 0 pair (32 - half !idx) 32;
      idx := !idx lsr 1;
      Zkflow_hash.Sha256.digest64_into ctx ~src:pair ~src_pos:0 ~dst:pair
        ~dst_pos:(half !idx))
    t.siblings;
  D.of_bytes (Bytes.sub pair (half !idx) 32)

let verify ~root ~leaf_hash t = D.equal root (compute_root t leaf_hash)

(* Leaf rule duplicated from Tree to avoid a dependency cycle; kept in
   sync by the tests. *)
let leaf_domain = Bytes.of_string "zkflow.lf.v1"

let verify_data ~root data t =
  let leaf_hash =
    D.of_bytes (Zkflow_hash.Sha256.digest_concat [ leaf_domain; data ])
  in
  verify ~root ~leaf_hash t

let depth t = Array.length t.siblings

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
