(* The state is one 32-byte digest. Every absorb hashes the state with
   one frame, "<label length>:<label><payload length>:<payload>"
   (decimal lengths), and every draw hashes the state with the frame
   of "chal:<label>" over an empty payload, then ratchets the state
   with the draw: the SHA-256 of state ‖ draw.

   The state sits in bytes [0, 32) of one buffer and each frame header
   is laid right after it, so a draw hashes one contiguous prefix of
   the buffer. The draw is written over the header at [32, 64), and the
   ratchet is one 64-byte [Sha256.digest64_into] of the buffer's start
   back into the state, which leaves the draw in place for the caller
   to read. Absorbing and drawing allocate nothing; a label too long
   for the buffer grows it once. *)
type t = { mutable buf : bytes; ctx : Sha256.ctx }

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* [n >= 0] in decimal at [pos]; returns the position past it. *)
let put_decimal b pos n =
  let d = digits n and n = ref n in
  for k = d - 1 downto 0 do
    Bytes.unsafe_set b (pos + k) (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  pos + d

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* The header of a frame whose label is [tag ^ label], then
   ["." ^ index] when [index >= 0], over a payload of [len] bytes, laid
   at byte 32 of the buffer; returns the position past it. The buffer
   keeps room for the state, three decimals of at most 19 digits, the
   three separators and an int payload after the header. *)
let header t ~tag ~label ~index len =
  let need = 32 + (3 * 19) + 3 + 8 + String.length tag + String.length label in
  if Bytes.length t.buf < need then t.buf <- Bytes.extend t.buf 0 (need - Bytes.length t.buf);
  let b = t.buf in
  let suffix = if index < 0 then 0 else 1 + digits index in
  let pos = put_decimal b 32 (String.length tag + String.length label + suffix) in
  Bytes.unsafe_set b pos ':';
  let pos = put_string b (pos + 1) tag in
  let pos = put_string b pos label in
  let pos =
    if index < 0 then pos
    else begin
      Bytes.unsafe_set b pos '.';
      put_decimal b (pos + 1) index
    end
  in
  let pos = put_decimal b pos len in
  Bytes.unsafe_set b pos ':';
  pos + 1

let create ~domain =
  let t = { buf = Bytes.create 128; ctx = Sha256.init () } in
  let stop = header t ~tag:"" ~label:"zkflow.transcript.domain" ~index:(-1) (String.length domain) in
  Sha256.update_sub t.ctx t.buf ~pos:32 ~len:(stop - 32);
  Sha256.update_string t.ctx domain;
  Sha256.finalize_into t.ctx ~dst:t.buf ~dst_pos:0;
  t

let absorb_sub t ~label b len =
  let stop = header t ~tag:"" ~label ~index:(-1) len in
  Sha256.reset t.ctx;
  Sha256.update_sub t.ctx t.buf ~pos:0 ~len:stop;
  Sha256.update_sub t.ctx b ~pos:0 ~len;
  Sha256.finalize_into t.ctx ~dst:t.buf ~dst_pos:0

let absorb_bytes t ~label b = absorb_sub t ~label b (Bytes.length b)
let absorb_digest t ~label d = absorb_bytes t ~label (Digest32.unsafe_to_bytes d)

let absorb_int t ~label n =
  let stop = header t ~tag:"" ~label ~index:(-1) 8 in
  Bytes.set_int64_be t.buf stop (Int64.of_int n);
  Sha256.reset t.ctx;
  Sha256.update_sub t.ctx t.buf ~pos:0 ~len:(stop + 8);
  Sha256.finalize_into t.ctx ~dst:t.buf ~dst_pos:0

(* One draw into bytes [32, 64), then the state ratcheted over it. *)
let draw t ~label ~index =
  let stop = header t ~tag:"chal:" ~label ~index 0 in
  Sha256.reset t.ctx;
  Sha256.update_sub t.ctx t.buf ~pos:0 ~len:stop;
  Sha256.finalize_into t.ctx ~dst:t.buf ~dst_pos:32;
  Sha256.digest64_into t.ctx ~src:t.buf ~src_pos:0 ~dst:t.buf ~dst_pos:0

let challenge_digest t ~label =
  draw t ~label ~index:(-1);
  Digest32.of_bytes (Bytes.sub t.buf 32 32)

(* Rejection sampling over 63-bit draws keeps the result unbiased. *)
let draw_int t ~label ~index ~bound =
  if bound <= 0 then invalid_arg "Transcript.challenge_int: bound must be positive";
  let limit = max_int - (max_int mod bound) in
  let v = ref limit in
  while !v >= limit do
    draw t ~label ~index;
    v := Int64.to_int (Bytes.get_int64_be t.buf 32) land max_int
  done;
  !v mod bound

let challenge_int t ~label ~bound = draw_int t ~label ~index:(-1) ~bound

let challenge_ints t ~label ~bound ~count =
  Array.init count (fun i -> draw_int t ~label ~index:i ~bound)
