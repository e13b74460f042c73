let get_u32_be = Bytes.get_int32_be
let set_u32_be = Bytes.set_int32_be
let get_u64_be = Bytes.get_int64_be
let set_u64_be = Bytes.set_int64_be
let get_u16_be = Bytes.get_uint16_be
let set_u16_be = Bytes.set_uint16_be

let concat parts = Bytes.concat Bytes.empty parts

let equal_constant_time a b =
  if Bytes.length a <> Bytes.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to Bytes.length a - 1 do
      acc := !acc lor (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i))
    done;
    !acc = 0
  end

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Eight bytes a step, then the tail byte by byte. The int64 compare is
   on unboxed words, and the loop is a top-level function rather than
   a closure, so nothing is allocated. *)
let rec equal_from a apos b bpos len i =
  if i + 8 <= len then
    (get64u a (apos + i) : int64) = get64u b (bpos + i)
    && equal_from a apos b bpos len (i + 8)
  else
    i = len
    || Bytes.unsafe_get a (apos + i) = Bytes.unsafe_get b (bpos + i)
       && equal_from a apos b bpos len (i + 1)

let equal_sub a apos b bpos len =
  if apos < 0 || bpos < 0 || len < 0
     || apos > Bytes.length a - len || bpos > Bytes.length b - len
  then invalid_arg "Bytesx.equal_sub: out of bounds";
  equal_from a apos b bpos len 0

let xor a b =
  if Bytes.length a <> Bytes.length b then
    invalid_arg "Bytesx.xor: length mismatch";
  Bytes.init (Bytes.length a) (fun i ->
      Char.chr (Char.code (Bytes.get a i) lxor Char.code (Bytes.get b i)))

let of_int32_list ws =
  let b = Bytes.create (4 * List.length ws) in
  List.iteri (fun i w -> set_u32_be b (4 * i) w) ws;
  b

let to_int32_list b =
  let n = Bytes.length b in
  if n mod 4 <> 0 then invalid_arg "Bytesx.to_int32_list: length not 4-aligned";
  List.init (n / 4) (fun i -> get_u32_be b (4 * i))

let pp_hex ppf b =
  Bytes.iter (fun c -> Format.fprintf ppf "%02x" (Char.code c)) b
