exception Decode of string

(* A writer puts its bytes at [pos] of [data]: a buffer it grows
   ([writer]), a caller's buffer it may not outgrow ([into]), or none,
   when it only counts them ([sizer]). *)
type mode = Grow | Fixed | Count

type writer = { mutable data : bytes; mutable pos : int; start : int; mode : mode }

let writer () = { data = Bytes.create 256; pos = 0; start = 0; mode = Grow }
let sizer () = { data = Bytes.empty; pos = 0; start = 0; mode = Count }
let into data ~pos = { data; pos; start = pos; mode = Fixed }

(* Whether the [n] bytes at [w.pos] are to be written: room is made
   for them first. *)
let room w n =
  match w.mode with
  | Count -> false
  | Fixed ->
    if w.pos + n > Bytes.length w.data then invalid_arg "Wire.into: buffer too small";
    true
  | Grow ->
    if w.pos + n > Bytes.length w.data then begin
      let data = Bytes.create (Int.max (2 * Bytes.length w.data) (w.pos + n)) in
      Bytes.blit w.data 0 data 0 w.pos;
      w.data <- data
    end;
    true

let w_int w v =
  let n = Varint.size v in
  if room w n then ignore (Varint.put w.data w.pos v : int);
  w.pos <- w.pos + n

let w_bool w b = w_int w (if b then 1 else 0)

let w_bytes w b =
  let n = Bytes.length b in
  w_int w n;
  if room w n then Bytes.blit b 0 w.data w.pos n;
  w.pos <- w.pos + n

let w_string w s = w_bytes w (Bytes.unsafe_of_string s)

let w_list w f l =
  w_int w (List.length l);
  List.iter f l

let w_array w f a =
  w_int w (Array.length a);
  Array.iter f a

let length w = w.pos - w.start
let contents w = Bytes.sub w.data w.start (length w)

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
