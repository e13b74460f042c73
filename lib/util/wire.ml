exception Decode of string

type writer = Buffer.t

let writer () = Buffer.create 256
let w_int buf v = Varint.write buf v
let w_bool buf b = Varint.write buf (if b then 1 else 0)

let w_bytes buf b =
  Varint.write buf (Bytes.length b);
  Buffer.add_bytes buf b

let w_string buf s = w_bytes buf (Bytes.unsafe_of_string s)

let w_list buf f l =
  Varint.write buf (List.length l);
  List.iter f l

let w_array buf f a =
  Varint.write buf (Array.length a);
  Array.iter f a

let contents = Buffer.to_bytes

type reader = { data : bytes; mutable pos : int }

let reader data = { data; pos = 0 }

let r_int r =
  match Varint.read r.data r.pos with
  | v, next ->
    r.pos <- next;
    v
  | exception Invalid_argument msg -> raise (Decode msg)

let r_bool r =
  match r_int r with
  | 0 -> false
  | 1 -> true
  | _ -> raise (Decode "bool out of range")

let r_raw r len =
  if len < 0 || r.pos + len > Bytes.length r.data then raise (Decode "bytes: truncated");
  let b = Bytes.sub r.data r.pos len in
  r.pos <- r.pos + len;
  b

let r_bytes r = r_raw r (r_int r)

let r_string r = Bytes.to_string (r_bytes r)

let r_list r f =
  let n = r_int r in
  if n > Bytes.length r.data - r.pos + 1 then raise (Decode "list: implausible count");
  List.init n (fun _ -> f ())

let r_array r f =
  let n = r_int r in
  if n > Bytes.length r.data - r.pos + 1 then raise (Decode "array: implausible count");
  Array.init n (fun _ -> f ())

let r_end r = if r.pos <> Bytes.length r.data then raise (Decode "trailing bytes")

let decode data f =
  let r = reader data in
  match
    let v = f r in
    r_end r;
    v
  with
  | v -> Ok v
  | exception Decode msg -> Error msg
  | exception Invalid_argument msg -> Error msg
