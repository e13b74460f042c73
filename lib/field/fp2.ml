module F = Babybear

type t = { c0 : F.t; c1 : F.t }

(* 11 is a quadratic non-residue mod p (11^((p-1)/2) = p - 1); the
   assertion below re-checks this at start-up. *)
let non_residue = 11
let () = assert (F.pow non_residue ((F.p - 1) / 2) = F.p - 1)

let zero = { c0 = F.zero; c1 = F.zero }
let one = { c0 = F.one; c1 = F.zero }
let of_base x = { c0 = x; c1 = F.zero }
let make c0 c1 = { c0; c1 }
let add a b = { c0 = F.add a.c0 b.c0; c1 = F.add a.c1 b.c1 }
let sub a b = { c0 = F.sub a.c0 b.c0; c1 = F.sub a.c1 b.c1 }
let neg a = { c0 = F.neg a.c0; c1 = F.neg a.c1 }

let mul a b =
  (* (a0 + a1 u)(b0 + b1 u) = a0 b0 + ν a1 b1 + (a0 b1 + a1 b0) u *)
  {
    c0 = F.add (F.mul a.c0 b.c0) (F.mul non_residue (F.mul a.c1 b.c1));
    c1 = F.add (F.mul a.c0 b.c1) (F.mul a.c1 b.c0);
  }

let inv a =
  (* 1 / (a0 + a1 u) = (a0 − a1 u) / (a0² − ν a1²). *)
  let norm = F.sub (F.mul a.c0 a.c0) (F.mul non_residue (F.mul a.c1 a.c1)) in
  if norm = F.zero then raise Division_by_zero;
  let ninv = F.inv norm in
  { c0 = F.mul a.c0 ninv; c1 = F.neg (F.mul a.c1 ninv) }

let pow x n =
  if n < 0 then invalid_arg "Fp2.pow: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else
      let acc = if n land 1 = 1 then mul acc base else acc in
      go acc (mul base base) (n lsr 1)
  in
  go one x n

let equal a b = F.equal a.c0 b.c0 && F.equal a.c1 b.c1
let random rng = { c0 = F.random rng; c1 = F.random rng }

let of_digest_prefix d =
  if Bytes.length d < 8 then invalid_arg "Fp2.of_digest_prefix: need 8 bytes";
  { c0 = F.of_bytes_le d 0; c1 = F.of_bytes_le d 4 }

let to_bytes x =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int x.c0);
  Bytes.set_int32_le b 4 (Int32.of_int x.c1);
  b

let of_bytes b =
  if Bytes.length b <> 8 then Error "fp2: wrong length"
  else begin
    let c0 = Int32.to_int (Bytes.get_int32_le b 0) in
    let c1 = Int32.to_int (Bytes.get_int32_le b 4) in
    if c0 < 0 || c0 >= F.p || c1 < 0 || c1 >= F.p then Error "fp2: not canonical"
    else Ok { c0; c1 }
  end

let pp ppf a = Format.fprintf ppf "(%d + %d·u)" a.c0 a.c1
