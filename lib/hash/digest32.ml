type t = bytes

let of_bytes b =
  if Bytes.length b <> 32 then invalid_arg "Digest32.of_bytes: need 32 bytes";
  Bytes.copy b

let to_bytes d = Bytes.copy d
let unsafe_to_bytes d = d

let of_hex s =
  let b = Zkflow_util.Hexcodec.decode_exn s in
  of_bytes b

let to_hex d = Zkflow_util.Hexcodec.encode d
let equal = Zkflow_util.Bytesx.equal_constant_time
let compare = Bytes.compare
let zero = Bytes.make 32 '\000'
let hash_bytes b = Sha256.digest b
let hash_string s = Sha256.digest_string s

let combine l r =
  let pair = Bytes.create 64 in
  Bytes.blit l 0 pair 0 32;
  Bytes.blit r 0 pair 32 32;
  Sha256.digest64_into (Sha256.init ()) ~src:pair ~src_pos:0 ~dst:pair ~dst_pos:0;
  Bytes.sub pair 0 32

let short d = String.sub (to_hex d) 0 8
let pp ppf d = Format.pp_print_string ppf (to_hex d)
