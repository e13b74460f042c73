module D = Zkflow_hash.Digest32
module Wire = Zkflow_util.Wire

type claim = { image_id : D.t; exit_code : int; journal : int array }

(* Hashing masks words to 32 bits, so a word outside the range would
   verify as its low half; the claim check rejects it first. *)
let check_claim claim =
  let in_range w = w >= 0 && w < 1 lsl 32 in
  if not (in_range claim.exit_code) then Error "claim: exit code out of 32-bit range"
  else
    let rec word i =
      if i = Array.length claim.journal then Ok ()
      else if in_range claim.journal.(i) then word (i + 1)
      else Error (Printf.sprintf "claim: journal word %d out of 32-bit range" i)
    in
    word 0

let journal_word_bytes w =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (w land 0xffffffff));
  b

let journal_digest claim =
  Zkflow_hash.Chain.head (Zkflow_hash.Chain.extend_words Zkflow_hash.Chain.genesis claim.journal)

let claim_digest claim =
  Zkflow_hash.Digest32.of_bytes
    (Zkflow_hash.Sha256.digest_concat
       [
         Bytes.of_string "zkflow.claim.v1";
         D.unsafe_to_bytes claim.image_id;
         journal_word_bytes claim.exit_code;
         D.unsafe_to_bytes (journal_digest claim);
       ])

let node = Zkflow_hash.Sha256.node64

type column = { leaves : bytes array; helpers : bytes }

type seal = {
  params : Params.t;
  n_rows : int;
  n_mem : int;
  root_rows : D.t;
  root_time : D.t;
  root_sorted : D.t;
  root_jacc : D.t;
  root_z : D.t;
  rows : column;
  jacc : column;
  time : column;
  sorted : column;
  z : column;
}

type t = { claim : claim; seal : seal }

let max_leaves ~queries = (32 * queries) + 2

let columns s =
  [ ("rows", s.rows); ("jacc", s.jacc); ("time", s.time); ("sorted", s.sorted); ("z", s.z) ]

(* ---- encoding ---- *)

let w_digest w d = Wire.w_bytes w (D.unsafe_to_bytes d)

let w_column w c =
  Wire.w_array w (Wire.w_bytes w) c.leaves;
  Wire.w_bytes w c.helpers

let encode_seal w s =
  Wire.w_int w s.params.Params.queries;
  Wire.w_int w s.n_rows;
  Wire.w_int w s.n_mem;
  w_digest w s.root_rows;
  w_digest w s.root_time;
  w_digest w s.root_sorted;
  w_digest w s.root_jacc;
  w_digest w s.root_z;
  List.iter (fun (_, c) -> w_column w c) (columns s)

(* Every encoding starts with the seal version, as a Wire string. *)
let seal_tag = "zkflow.seal.v4"

let tag_prefix =
  let w = Wire.writer () in
  Wire.w_string w seal_tag;
  Wire.contents w

let encode t =
  let w = Wire.writer () in
  Wire.w_string w seal_tag;
  w_digest w t.claim.image_id;
  Wire.w_int w t.claim.exit_code;
  Wire.w_array w (fun x -> Wire.w_int w x) t.claim.journal;
  encode_seal w t.seal;
  Wire.contents w

(* ---- decoding ---- *)

let r_digest r =
  let b = Wire.r_bytes r in
  if Bytes.length b <> 32 then raise (Wire.Decode "digest: wrong length");
  D.of_bytes b

(* Both counts are bounded before anything of the column is
   allocated: the leaves by the query count, the helpers by 64 (the
   deepest tree) per leaf. The verifier then requires the exact counts
   its challenges imply. *)
let r_column ~queries what r =
  let n = Wire.r_int r in
  if n > max_leaves ~queries then
    raise (Wire.Decode (Printf.sprintf "%s: %d leaves for %d queries" what n queries));
  let leaves = Array.init n (fun _ -> Wire.r_bytes r) in
  let len = Wire.r_int r in
  if len mod 32 <> 0 then raise (Wire.Decode (what ^ ": helpers are not whole digests"));
  if len / 32 > 64 * n then
    raise
      (Wire.Decode (Printf.sprintf "%s: %d helpers for %d leaves" what (len / 32) n));
  { leaves; helpers = Wire.r_raw r len }

let decode_seal r =
  let queries = Wire.r_int r in
  let params =
    try Params.make ~queries with Invalid_argument m -> raise (Wire.Decode m)
  in
  let n_rows = Wire.r_int r in
  let n_mem = Wire.r_int r in
  let root_rows = r_digest r in
  let root_time = r_digest r in
  let root_sorted = r_digest r in
  let root_jacc = r_digest r in
  let root_z = r_digest r in
  let column what = r_column ~queries what r in
  let rows = column "rows" in
  let jacc = column "jacc" in
  let time = column "time" in
  let sorted = column "sorted" in
  let z = column "z" in
  {
    params; n_rows; n_mem; root_rows; root_time; root_sorted; root_jacc;
    root_z; rows; jacc; time; sorted; z;
  }

let decode b =
  let n = Bytes.length tag_prefix in
  if Bytes.length b < n || not (Zkflow_util.Bytesx.equal_sub b 0 tag_prefix 0 n) then
    Error "receipt: unsupported seal version"
  else
    Wire.decode b (fun r ->
        ignore (Wire.r_string r);
        let image_id = r_digest r in
        let exit_code = Wire.r_int r in
        let journal = Wire.r_array r (fun () -> Wire.r_int r) in
        let seal = decode_seal r in
        { claim = { image_id; exit_code; journal }; seal })

let journal_size t = 4 * Array.length t.claim.journal

let seal_size t =
  let w = Wire.writer () in
  encode_seal w t.seal;
  Bytes.length (Wire.contents w)

let size t = Bytes.length (encode t)
