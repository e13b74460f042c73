(* The state is one 32-byte digest. Every absorb hashes the state with
   one frame, "<label length>:<label><payload length>:<payload>"
   (decimal lengths), and every draw hashes the state with the frame
   of "chal:<label>" over an empty payload, then ratchets the state
   with the draw. All of it streams through one reused context, piece
   by piece: decimals are written into [digits], an int payload or a
   draw into [scratch], so absorbing and drawing allocate nothing. *)
type t = { state : bytes; scratch : bytes; digits : bytes; ctx : Sha256.ctx }

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* [n >= 0] in decimal, absorbed. *)
let absorb_decimal t n =
  let d = digits n and n = ref n in
  for k = d - 1 downto 0 do
    Bytes.set t.digits k (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  Sha256.update_sub t.ctx t.digits ~pos:0 ~len:d

(* The header of a frame whose label is [tag ^ label], then
   ["." ^ index] when [index >= 0], over a payload of [len] bytes. *)
let header t ~tag ~label ~index len =
  let suffix = if index < 0 then 0 else 1 + digits index in
  absorb_decimal t (String.length tag + String.length label + suffix);
  Sha256.update_string t.ctx ":";
  Sha256.update_string t.ctx tag;
  Sha256.update_string t.ctx label;
  if index >= 0 then begin
    Sha256.update_string t.ctx ".";
    absorb_decimal t index
  end;
  absorb_decimal t len;
  Sha256.update_string t.ctx ":"

let create ~domain =
  let t =
    {
      state = Bytes.create 32;
      scratch = Bytes.create 32;
      digits = Bytes.create 20;
      ctx = Sha256.init ();
    }
  in
  header t ~tag:"" ~label:"zkflow.transcript.domain" ~index:(-1) (String.length domain);
  Sha256.update_string t.ctx domain;
  Sha256.finalize_into t.ctx ~dst:t.state ~dst_pos:0;
  t

let absorb_sub t ~label b len =
  Sha256.reset t.ctx;
  Sha256.update t.ctx t.state;
  header t ~tag:"" ~label ~index:(-1) len;
  Sha256.update_sub t.ctx b ~pos:0 ~len;
  Sha256.finalize_into t.ctx ~dst:t.state ~dst_pos:0

let absorb_bytes t ~label b = absorb_sub t ~label b (Bytes.length b)
let absorb_digest t ~label d = absorb_bytes t ~label (Digest32.unsafe_to_bytes d)

let absorb_int t ~label n =
  Bytes.set_int64_be t.scratch 0 (Int64.of_int n);
  absorb_sub t ~label t.scratch 8

(* One draw into [scratch], then the state ratcheted over it. *)
let draw t ~label ~index =
  Sha256.reset t.ctx;
  Sha256.update t.ctx t.state;
  header t ~tag:"chal:" ~label ~index 0;
  Sha256.finalize_into t.ctx ~dst:t.scratch ~dst_pos:0;
  Sha256.reset t.ctx;
  Sha256.update t.ctx t.state;
  Sha256.update t.ctx t.scratch;
  Sha256.finalize_into t.ctx ~dst:t.state ~dst_pos:0

let challenge_digest t ~label =
  draw t ~label ~index:(-1);
  Digest32.of_bytes t.scratch

(* Rejection sampling over 63-bit draws keeps the result unbiased. *)
let draw_int t ~label ~index ~bound =
  if bound <= 0 then invalid_arg "Transcript.challenge_int: bound must be positive";
  let limit = max_int - (max_int mod bound) in
  let v = ref limit in
  while !v >= limit do
    draw t ~label ~index;
    v := Int64.to_int (Bytes.get_int64_be t.scratch 0) land max_int
  done;
  !v mod bound

let challenge_int t ~label ~bound = draw_int t ~label ~index:(-1) ~bound

let challenge_ints t ~label ~bound ~count =
  Array.init count (fun i -> draw_int t ~label ~index:i ~bound)
