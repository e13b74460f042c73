module D = Zkflow_hash.Digest32

type vkey = { key : bytes }

let setup ~seed = { key = Zkflow_hash.Hmac.expand ~key:seed ~info:"zkflow.wrap.setup.v1" 32 }

type t = {
  image_id : D.t;
  exit_code : int;
  journal : int array;
  seal256 : bytes;
}

let proof_size = 256

let seal_of_claim vkey (claim : Receipt.claim) =
  let tag =
    Zkflow_hash.Hmac.mac ~key:vkey.key
      (D.unsafe_to_bytes (Receipt.claim_digest claim))
  in
  Zkflow_hash.Hmac.expand ~key:tag ~info:"zkflow.wrap.seal.v1" proof_size

let wrap vkey ~program receipt =
  match Verify.verify ~program receipt with
  | Error e -> Error ("wrap: inner receipt invalid: " ^ e)
  | Ok () ->
    let claim = receipt.Receipt.claim in
    Ok
      {
        image_id = claim.Receipt.image_id;
        exit_code = claim.Receipt.exit_code;
        journal = claim.Receipt.journal;
        seal256 = seal_of_claim vkey claim;
      }

let verify vkey t =
  let claim =
    { Receipt.image_id = t.image_id; exit_code = t.exit_code; journal = t.journal }
  in
  Result.is_ok (Receipt.check_claim claim)
  && Zkflow_util.Bytesx.equal_constant_time t.seal256 (seal_of_claim vkey claim)

let encode t =
  let w = Zkflow_util.Wire.writer () in
  Zkflow_util.Wire.w_bytes w (D.unsafe_to_bytes t.image_id);
  Zkflow_util.Wire.w_int w t.exit_code;
  Zkflow_util.Wire.w_array w (Zkflow_util.Wire.w_int w) t.journal;
  Zkflow_util.Wire.w_bytes w t.seal256;
  Zkflow_util.Wire.contents w

let decode b =
  Zkflow_util.Wire.decode b (fun r ->
      let image = Zkflow_util.Wire.r_bytes r in
      if Bytes.length image <> 32 then raise (Zkflow_util.Wire.Decode "image id");
      let exit_code = Zkflow_util.Wire.r_int r in
      let journal = Zkflow_util.Wire.r_array r (fun () -> Zkflow_util.Wire.r_int r) in
      let seal256 = Zkflow_util.Wire.r_bytes r in
      if Bytes.length seal256 <> proof_size then
        raise (Zkflow_util.Wire.Decode "seal size");
      { image_id = D.of_bytes image; exit_code; journal; seal256 })
