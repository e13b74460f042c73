type t = int

let p = 2013265921 (* 15 * 2^27 + 1 *)
let zero = 0
let one = 1

let of_int n =
  let r = n mod p in
  if r < 0 then r + p else r

let to_int x = x
let add a b = let s = a + b in if s >= p then s - p else s
let sub a b = let d = a - b in if d < 0 then d + p else d
let neg a = if a = 0 then 0 else p - a
let mul a b = a * b mod p

let pow x n =
  if n < 0 then invalid_arg "Babybear.pow: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else
      let acc = if n land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (n lsr 1)
  in
  go one x n

let inv x = if x = 0 then raise Division_by_zero else pow x (p - 2)
let div a b = mul a (inv b)
let equal = Int.equal
let of_bytes_le b off =
  let v =
    Char.code (Bytes.get b off)
    lor (Char.code (Bytes.get b (off + 1)) lsl 8)
    lor (Char.code (Bytes.get b (off + 2)) lsl 16)
    lor (Char.code (Bytes.get b (off + 3)) lsl 24)
  in
  v mod p

let random rng =
  (* Rejection sampling from [0, 2^31) keeps the distribution uniform. *)
  let rec go () =
    let v = Int64.to_int (Zkflow_util.Rng.next_int64 rng) land 0x7fffffff in
    if v < p then v else go ()
  in
  go ()

let pp ppf x = Format.pp_print_int ppf x
