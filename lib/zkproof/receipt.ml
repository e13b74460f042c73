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
  Zkflow_hash.Chain.head
    (Array.fold_left
       (fun chain w -> Zkflow_hash.Chain.extend chain (journal_word_bytes w))
       Zkflow_hash.Chain.genesis claim.journal)

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

type opening = { index : int; leaf : bytes; path : Zkflow_merkle.Proof.t }

type step_check = {
  row : opening;
  next : opening;
  mem : opening array;
  jacc : opening;
  jacc_next : opening;
}

type sorted_check = { first : opening; second : opening }
type z_check = { z : opening; z_next : opening; entry_next : opening }

type boundary = {
  row0 : opening;
  last_row : opening;
  jacc0 : opening;
  jacc_last : opening;
  time0 : opening;
  sorted0 : opening;
  z0 : opening;
  z_last : opening;
}

type seal = {
  params : Params.t;
  n_rows : int;
  n_mem : int;
  root_rows : D.t;
  root_time : D.t;
  root_sorted : D.t;
  root_jacc : D.t;
  root_z : D.t;
  steps : step_check array;
  sorteds : sorted_check array;
  zs_time : z_check array;
  zs_sorted : z_check array;
  boundary : boundary;
}

type t = { claim : claim; seal : seal }

(* ---- encoding ---- *)

let w_digest w d = Wire.w_bytes w (D.unsafe_to_bytes d)

let w_opening w o =
  Wire.w_int w o.index;
  Wire.w_bytes w o.leaf;
  Wire.w_bytes w (Zkflow_merkle.Proof.encode o.path)

let w_step w s =
  w_opening w s.row;
  w_opening w s.next;
  Wire.w_array w (w_opening w) s.mem;
  w_opening w s.jacc;
  w_opening w s.jacc_next

let w_sorted w s =
  w_opening w s.first;
  w_opening w s.second

let w_z w z =
  w_opening w z.z;
  w_opening w z.z_next;
  w_opening w z.entry_next

let encode_seal w s =
  Wire.w_int w s.params.Params.queries;
  Wire.w_int w s.n_rows;
  Wire.w_int w s.n_mem;
  w_digest w s.root_rows;
  w_digest w s.root_time;
  w_digest w s.root_sorted;
  w_digest w s.root_jacc;
  w_digest w s.root_z;
  Wire.w_array w (w_step w) s.steps;
  Wire.w_array w (w_sorted w) s.sorteds;
  Wire.w_array w (w_z w) s.zs_time;
  Wire.w_array w (w_z w) s.zs_sorted;
  let b = s.boundary in
  List.iter (w_opening w)
    [
      b.row0; b.last_row; b.jacc0; b.jacc_last; b.time0; b.sorted0; b.z0; b.z_last;
    ]

(* Every encoding starts with the seal version, as a Wire string. *)
let seal_tag = "zkflow.seal.v2"

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

let r_opening r =
  let index = Wire.r_int r in
  let leaf = Wire.r_bytes r in
  let path_bytes = Wire.r_bytes r in
  match Zkflow_merkle.Proof.decode path_bytes 0 with
  | Ok (path, consumed) when consumed = Bytes.length path_bytes ->
    { index; leaf; path }
  | Ok _ -> raise (Wire.Decode "opening: trailing path bytes")
  | Error e -> raise (Wire.Decode e)

let r_step r =
  let row = r_opening r in
  let next = r_opening r in
  let mem = Wire.r_array r (fun () -> r_opening r) in
  let jacc = r_opening r in
  let jacc_next = r_opening r in
  { row; next; mem; jacc; jacc_next }

let r_sorted r =
  let first = r_opening r in
  let second = r_opening r in
  { first; second }

let r_z r =
  let z = r_opening r in
  let z_next = r_opening r in
  let entry_next = r_opening r in
  { z; z_next; entry_next }

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
  let steps = Wire.r_array r (fun () -> r_step r) in
  let sorteds = Wire.r_array r (fun () -> r_sorted r) in
  let zs_time = Wire.r_array r (fun () -> r_z r) in
  let zs_sorted = Wire.r_array r (fun () -> r_z r) in
  let o () = r_opening r in
  let row0 = o () in
  let last_row = o () in
  let jacc0 = o () in
  let jacc_last = o () in
  let time0 = o () in
  let sorted0 = o () in
  let z0 = o () in
  let z_last = o () in
  {
    params; n_rows; n_mem; root_rows; root_time; root_sorted; root_jacc;
    root_z; steps; sorteds; zs_time; zs_sorted;
    boundary = { row0; last_row; jacc0; jacc_last; time0; sorted0; z0; z_last };
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
