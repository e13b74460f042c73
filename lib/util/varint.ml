let write buf v =
  if v < 0 then invalid_arg "Varint.write: negative";
  let rec go v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7f)));
      go (v lsr 7)
    end
  in
  go v

(* Top level rather than local to [put], so a call allocates no closure. *)
let rec put_from b off v =
  if v < 0x80 then begin
    Bytes.set b off (Char.unsafe_chr v);
    off + 1
  end
  else begin
    Bytes.set b off (Char.unsafe_chr (0x80 lor (v land 0x7f)));
    put_from b (off + 1) (v lsr 7)
  end

let put b off v =
  if v < 0 then invalid_arg "Varint.put: negative";
  put_from b off v

(* A digit at [shift] must leave the value below 2^62, or it would
   reach the sign bit of a 63-bit int: the ninth byte keeps 6 bits.
   Top level rather than local to [get], so a read allocates no
   closure. *)
let rec get_from b pos shift acc =
  if !pos >= Bytes.length b then invalid_arg "Varint.read: truncated";
  let c = Char.code (Bytes.get b !pos) in
  if shift > 62 || (c land 0x7f) lsr (62 - shift) <> 0 then
    invalid_arg "Varint.read: overflow";
  incr pos;
  let acc = acc lor ((c land 0x7f) lsl shift) in
  if c land 0x80 = 0 then acc else get_from b pos (shift + 7) acc

let get b pos = get_from b pos 0 0

let read b off =
  let pos = ref off in
  let v = get b pos in
  (v, !pos)

let size v =
  if v < 0 then invalid_arg "Varint.size: negative";
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1
