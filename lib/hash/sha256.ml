(* FIPS 180-4 SHA-256, with two kernels for the compression function.
   On an x86-64 CPU with the SHA extensions a block runs through
   [sha256_stubs.c] (sha256rnds2/msg1/msg2); everywhere else it runs
   through the OCaml rounds below, which also serve as the reference
   the tests check the hardware against. The CPU alone picks the
   kernel, once at module init, and [kernel] names it. Both compute
   the same function, so every digest is bit-identical whichever runs;
   bounds checks, IVs and the compression count stay in OCaml. The
   batch kernels (Merkle leaf runs and node levels, below) also run
   their loops, padding and digest output in C on SHA-NI. Measured on
   a 2-vCPU Xeon VM with SHA-NI (OCaml 5.1, no flambda, gcc 12): a
   [node64_into] takes 57 ns on the hardware kernel against 424 ns on
   the OCaml one, and a [digest64_into] 105 against 675 ns.

   The OCaml kernel allocates nothing: the chaining state, the 64-word
   message schedule and the round constants live in [Bytes], read and
   written through the unboxed 32-bit bytes primitives, and the 64
   rounds run unrolled by eight over let-bound int32 working variables
   that ocamlopt keeps unboxed. Measured against the earlier kernel,
   which kept state and schedule in int32 arrays and so boxed every
   word it stored: a 64-byte Merkle node hash went from 464 minor
   words to none and from 1.6 to 0.7 us, and an ingest-steady
   perfbench epoch from 507 to 31 MB of minor allocation (same VM). *)

(* One count per 64-byte block; covers every digest in the system since
   all hashing funnels through [compress], [node_into] and the batch
   kernels. *)
let m_compressions = Zkflow_obs.Metric.counter "sha256.compressions"

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* Message and digest words are big-endian; state, schedule and
   constants are kept in native order. The loads and stores are
   unchecked, so every entry point bounds its offsets first. *)
let[@inline] load_be b i = if Sys.big_endian then get32u b i else bswap32 (get32u b i)
let[@inline] store_be b i v = set32u b i (if Sys.big_endian then v else bswap32 v)

let words l =
  let b = Bytes.create (4 * Array.length l) in
  Array.iteri (fun i w -> Bytes.set_int32_ne b (4 * i) w) l;
  b

let k = words [|
  0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l;
  0x3956c25bl; 0x59f111f1l; 0x923f82a4l; 0xab1c5ed5l;
  0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
  0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l;
  0xe49b69c1l; 0xefbe4786l; 0x0fc19dc6l; 0x240ca1ccl;
  0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
  0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l;
  0xc6e00bf3l; 0xd5a79147l; 0x06ca6351l; 0x14292967l;
  0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
  0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l;
  0xa2bfe8a1l; 0xa81a664bl; 0xc24b8b70l; 0xc76c51a3l;
  0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
  0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l;
  0x391c0cb3l; 0x4ed8aa4al; 0x5b9cca4fl; 0x682e6ff3l;
  0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
  0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
|]

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let iv_state = words (Array.map Int32.of_int iv)
let state_words st =
  Array.init 8 (fun i -> Int32.to_int (get32u st (4 * i)) land 0xffffffff)

(* [sha_ni_compress st src pos] compresses [src.[pos .. pos+63]] into
   the 32-byte native-order chaining state [st] on the SHA extensions.
   Unchecked: callers bound [pos], and call it only when
   [sha_ni_available ()] said yes. *)
external sha_ni_available : unit -> bool = "zkflow_sha256_ni_available"
external sha_ni_compress : bytes -> bytes -> int -> unit = "zkflow_sha256_ni_compress"
[@@noalloc]

let sha_ni = sha_ni_available ()
let kernel = if sha_ni then "sha-ni" else "ocaml"

let[@inline] rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

(* Load the 16 big-endian words of the block at [src.[pos..pos+63]]
   and expand them into the 64-word schedule [w]. *)
let expand w src pos =
  for i = 0 to 15 do
    set32u w (4 * i) (load_be src (pos + (4 * i)))
  done;
  for i = 16 to 63 do
    let x = get32u w (4 * (i - 15)) and y = get32u w (4 * (i - 2)) in
    let s0 = Int32.logxor (rotr x 7) (Int32.logxor (rotr x 18) (Int32.shift_right_logical x 3)) in
    let s1 = Int32.logxor (rotr y 17) (Int32.logxor (rotr y 19) (Int32.shift_right_logical y 10)) in
    set32u w (4 * i)
      (Int32.add (Int32.add (get32u w (4 * (i - 16))) s0) (Int32.add (get32u w (4 * (i - 7))) s1))
  done

(* One round on working variables (a..h) is
     t1 = h + Σ1(e) + Ch(e,f,g) + K[i] + W[i],  d += t1,  h = t1 + Σ0(a) + Maj(a,b,c)
   after which the next round reads (h,a,b,c,d,e,f,g) as (a..h).
   Eight rounds bring the roles back round, so each group of eight is
   written out with the names rotated and no variable is copied. *)
let[@inline] t1 e f g h w i =
  let s1 = Int32.logxor (rotr e 6) (Int32.logxor (rotr e 11) (rotr e 25)) in
  let ch = Int32.logxor g (Int32.logand e (Int32.logxor f g)) in
  Int32.add (Int32.add h s1) (Int32.add ch (Int32.add (get32u k i) (get32u w i)))

let[@inline] t2 a b c =
  let s0 = Int32.logxor (rotr a 2) (Int32.logxor (rotr a 13) (rotr a 22)) in
  Int32.add s0 (Int32.logor (Int32.logand a b) (Int32.logand c (Int32.logor a b)))

(* The 64 rounds over schedule [w], added into the chaining state
   [st]. *)
let rounds st w =
  let ra = ref (get32u st 0) and rb = ref (get32u st 4) in
  let rc = ref (get32u st 8) and rd = ref (get32u st 12) in
  let re = ref (get32u st 16) and rf = ref (get32u st 20) in
  let rg = ref (get32u st 24) and rh = ref (get32u st 28) in
  for j = 0 to 7 do
    let i = 32 * j in
    let a = !ra and b = !rb and c = !rc and d = !rd in
    let e = !re and f = !rf and g = !rg and h = !rh in
    let x = t1 e f g h w i in
    let d = Int32.add d x and h = Int32.add x (t2 a b c) in
    let x = t1 d e f g w (i + 4) in
    let c = Int32.add c x and g = Int32.add x (t2 h a b) in
    let x = t1 c d e f w (i + 8) in
    let b = Int32.add b x and f = Int32.add x (t2 g h a) in
    let x = t1 b c d e w (i + 12) in
    let a = Int32.add a x and e = Int32.add x (t2 f g h) in
    let x = t1 a b c d w (i + 16) in
    let h = Int32.add h x and d = Int32.add x (t2 e f g) in
    let x = t1 h a b c w (i + 20) in
    let g = Int32.add g x and c = Int32.add x (t2 d e f) in
    let x = t1 g h a b w (i + 24) in
    let f = Int32.add f x and b = Int32.add x (t2 c d e) in
    let x = t1 f g h a w (i + 28) in
    let e = Int32.add e x and a = Int32.add x (t2 b c d) in
    ra := a; rb := b; rc := c; rd := d;
    re := e; rf := f; rg := g; rh := h
  done;
  set32u st 0 (Int32.add (get32u st 0) !ra);
  set32u st 4 (Int32.add (get32u st 4) !rb);
  set32u st 8 (Int32.add (get32u st 8) !rc);
  set32u st 12 (Int32.add (get32u st 12) !rd);
  set32u st 16 (Int32.add (get32u st 16) !re);
  set32u st 20 (Int32.add (get32u st 20) !rf);
  set32u st 24 (Int32.add (get32u st 24) !rg);
  set32u st 28 (Int32.add (get32u st 28) !rh)

type ctx = {
  st : bytes;                 (* 8 chaining words *)
  w : bytes;                  (* 64-word message schedule, reused *)
  block : bytes;              (* 64-byte working block *)
  mutable fill : int;         (* bytes buffered in [block] *)
  mutable total : int;        (* total message bytes absorbed *)
  mutable finalized : bool;
}

let init () = {
  st = Bytes.copy iv_state;
  w = Bytes.create 256;
  block = Bytes.create 64;
  fill = 0;
  total = 0;
  finalized = false;
}

let reset ctx =
  Bytes.blit iv_state 0 ctx.st 0 32;
  ctx.fill <- 0;
  ctx.total <- 0;
  ctx.finalized <- false

(* The block [src.[pos .. pos+63]] into [ctx.st], on the live kernel.
   Callers bound [pos]. *)
let[@inline] block ctx src pos =
  if sha_ni then sha_ni_compress ctx.st src pos
  else begin
    expand ctx.w src pos;
    rounds ctx.st ctx.w
  end

let compress ctx src pos =
  Zkflow_obs.Metric.add m_compressions 1;
  block ctx src pos

let write_digest st dst pos =
  for i = 0 to 7 do
    store_be dst (pos + (4 * i)) (get32u st (4 * i))
  done

let check_live ctx =
  if ctx.finalized then invalid_arg "Sha256: context already finalized"

let update_sub ctx b ~pos ~len =
  check_live ctx;
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Sha256.update_sub: out of bounds";
  ctx.total <- ctx.total + len;
  let pos = ref pos and remaining = ref len in
  (* Top up a partially filled block first. *)
  if ctx.fill > 0 then begin
    let take = min !remaining (64 - ctx.fill) in
    Bytes.blit b !pos ctx.block ctx.fill take;
    ctx.fill <- ctx.fill + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while !remaining >= 64 do
    compress ctx b !pos;
    pos := !pos + 64;
    remaining := !remaining - 64
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos ctx.block ctx.fill !remaining;
    ctx.fill <- ctx.fill + !remaining
  end

let update ctx b = update_sub ctx b ~pos:0 ~len:(Bytes.length b)
let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

(* Padding, in the context's own block: 0x80, zeros to 56 mod 64, then
   the 64-bit big-endian bit length. A block with more than 55 bytes
   buffered spills the length into one more block. *)
let finalize_into ctx ~dst ~dst_pos =
  check_live ctx;
  if dst_pos < 0 || dst_pos > Bytes.length dst - 32 then
    invalid_arg "Sha256.finalize_into: out of bounds";
  let b = ctx.block and fill = ctx.fill in
  Bytes.set b fill '\x80';
  if fill >= 56 then begin
    Bytes.fill b (fill + 1) (63 - fill) '\000';
    compress ctx b 0;
    Bytes.fill b 0 56 '\000'
  end
  else Bytes.fill b (fill + 1) (55 - fill) '\000';
  Bytes.set_int64_be b 56 (Int64.of_int (ctx.total * 8));
  compress ctx b 0;
  ctx.finalized <- true;
  write_digest ctx.st dst dst_pos

let finalize ctx =
  let out = Bytes.create 32 in
  finalize_into ctx ~dst:out ~dst_pos:0;
  out

(* The second block of every 64-byte message is the same padding
   block; the OCaml kernel expands its schedule once. *)
let pad64_block =
  let blk = Bytes.make 64 '\000' in
  Bytes.set blk 0 '\x80';
  Bytes.set_int64_be blk 56 512L;
  blk

let pad64_schedule =
  let w = Bytes.create 256 in
  expand w pad64_block 0;
  w

(* The chaining value after one block holding the node tag, zero
   padded, compressed from the standard IV. *)
let node_iv_state =
  let blk = Bytes.make 64 '\000' and st = Bytes.copy iv_state and w = Bytes.create 256 in
  Bytes.blit_string "zkflow.node.v2" 0 blk 0 14;
  expand w blk 0;
  rounds st w;
  st

(* A Merkle node rule as data, so a C loop can apply it: the chaining
   value the 64 child bytes are compressed into, and whether the
   constant padding block follows. [what] is the bounds message of
   the rule's one-node primitive. *)
type node = { what : string; from : bytes; pad : bool }

let digest64 = { what = "Sha256.digest64_into: out of bounds"; from = iv_state; pad = true }
let node64 = { what = "Sha256.node64_into: out of bounds"; from = node_iv_state; pad = false }
let node_blocks r = if r.pad then 2 else 1

(* One node: both windows bounded before any kernel runs, all 64
   source bytes read before anything is written (so [dst] may overlap
   [src]), and [ctx] left finalized. *)
let node_into r ctx ~src ~src_pos ~dst ~dst_pos =
  if src_pos < 0 || src_pos > Bytes.length src - 64
     || dst_pos < 0 || dst_pos > Bytes.length dst - 32
  then invalid_arg r.what;
  ctx.finalized <- true;
  Zkflow_obs.Metric.add m_compressions (node_blocks r);
  Bytes.blit r.from 0 ctx.st 0 32;
  block ctx src src_pos;
  if r.pad then begin
    if sha_ni then sha_ni_compress ctx.st pad64_block 0 else rounds ctx.st pad64_schedule
  end;
  write_digest ctx.st dst dst_pos

let digest64_into ctx ~src ~src_pos ~dst ~dst_pos =
  node_into digest64 ctx ~src ~src_pos ~dst ~dst_pos

let node64_into ctx ~src ~src_pos ~dst ~dst_pos =
  node_into node64 ctx ~src ~src_pos ~dst ~dst_pos

(* ---- batch kernels: one call per run of tree slots ----

   Both apply the equal-neighbour rule in their own loop, so a Merkle
   build makes one call per chunk of slots rather than two closure
   calls per slot. On SHA-NI the loops run in [sha256_stubs.c]; the
   OCaml loops below run everywhere else, one slot at a time through
   the one-slot primitives, and are the reference the stubs are tested
   against. The stubs check nothing and never raise, so the windows
   are bounded here first; they compress on the stack and leave [ctx]
   alone, except that the leaf stub reports its block count in the
   first 8 bytes of [ctx.w]. *)

external sha_ni_level : bytes -> bool -> bytes -> int -> int -> int -> int -> int
  = "zkflow_sha256_ni_level_byte" "zkflow_sha256_ni_level"
[@@noalloc]

external sha_ni_leaves :
  bytes -> bytes -> bytes -> int array -> bytes -> int -> int -> bytes -> int
  = "zkflow_sha256_ni_leaves_byte" "zkflow_sha256_ni_leaves"
[@@noalloc]

let level_ocaml r ctx buf ~src ~dst ~lo ~hi =
  let hashed = ref 0 in
  for i = lo to hi - 1 do
    let src_pos = 32 * (src + (2 * i)) and dst_pos = 32 * (dst + i) in
    if i > lo && Zkflow_util.Bytesx.equal_sub buf src_pos buf (src_pos - 64) 64 then
      Bytes.blit buf (dst_pos - 32) buf dst_pos 32
    else begin
      node_into r ctx ~src:buf ~src_pos ~dst:buf ~dst_pos;
      incr hashed
    end
  done;
  !hashed

let level_into r ctx buf ~src ~dst ~lo ~hi =
  let slots = Bytes.length buf / 32 in
  if lo < 0 || lo > hi || src < 0 || dst < 0 || src > slots || dst > slots
     || hi > (slots - src) / 2 || hi > slots - dst
     || (lo < hi && dst + hi > src + (2 * lo) && src + (2 * hi) > dst + lo)
  then invalid_arg "Sha256.level_into: window out of range or overlapping";
  ctx.finalized <- true;
  if sha_ni then begin
    let hashed = sha_ni_level r.from r.pad buf src dst lo hi in
    Zkflow_obs.Metric.add m_compressions (hashed * node_blocks r);
    hashed
  end
  else level_ocaml r ctx buf ~src ~dst ~lo ~hi

module Column = Zkflow_util.Column

external sha_ni_leaves_array :
  bytes -> bytes -> bytes array -> bytes -> int -> int -> bytes -> int
  = "zkflow_sha256_ni_leaves_array_byte" "zkflow_sha256_ni_leaves_array"
[@@noalloc]

let leaves_ocaml ctx ~prefix (col : Column.t) ~dst ~lo ~hi =
  let hashed = ref 0 in
  for i = lo to hi - 1 do
    if i > lo && Column.equal_leaves col i (i - 1) then
      Bytes.blit dst (32 * (i - 1)) dst (32 * i) 32
    else begin
      reset ctx;
      update ctx prefix;
      update_sub ctx col.data ~pos:col.off.(i) ~len:(col.off.(i + 1) - col.off.(i));
      finalize_into ctx ~dst ~dst_pos:(32 * i);
      incr hashed
    end
  done;
  !hashed

(* The stub reads [off.(lo) .. off.(hi)] and the bytes between them
   unchecked, so every one of those offsets is bounded here. *)
let leaves_into ctx ~prefix (col : Column.t) ~dst ~lo ~hi =
  let off = col.off in
  if lo < 0 || lo > hi || hi >= Array.length off || hi > Bytes.length dst / 32
     || dst == prefix || dst == col.data
  then invalid_arg "Sha256.leaves_into: window out of range or overlapping";
  if off.(lo) < 0 || off.(hi) > Bytes.length col.data then
    invalid_arg "Sha256.leaves_into: offsets past the buffer";
  for i = lo to hi - 1 do
    if off.(i) > off.(i + 1) then invalid_arg "Sha256.leaves_into: offsets decrease"
  done;
  ctx.finalized <- true;
  if sha_ni then begin
    let hashed = sha_ni_leaves iv_state prefix col.data off dst lo hi ctx.w in
    Zkflow_obs.Metric.add m_compressions (Int64.to_int (Bytes.get_int64_ne ctx.w 0));
    hashed
  end
  else leaves_ocaml ctx ~prefix col ~dst ~lo ~hi

let leaves_array_ocaml ctx ~prefix (leaves : bytes array) ~dst ~lo ~hi =
  let hashed = ref 0 in
  for i = lo to hi - 1 do
    if i > lo && Bytes.equal leaves.(i) leaves.(i - 1) then
      Bytes.blit dst (32 * (i - 1)) dst (32 * i) 32
    else begin
      reset ctx;
      update ctx prefix;
      update ctx leaves.(i);
      finalize_into ctx ~dst ~dst_pos:(32 * i);
      incr hashed
    end
  done;
  !hashed

let leaves_array_into ctx ~prefix leaves ~dst ~lo ~hi =
  if lo < 0 || lo > hi || hi > Array.length leaves || hi > Bytes.length dst / 32
     || dst == prefix
     || Array.exists (fun leaf -> leaf == dst) leaves
  then invalid_arg "Sha256.leaves_array_into: window out of range or overlapping";
  ctx.finalized <- true;
  if sha_ni then begin
    let hashed = sha_ni_leaves_array iv_state prefix leaves dst lo hi ctx.w in
    Zkflow_obs.Metric.add m_compressions (Int64.to_int (Bytes.get_int64_ne ctx.w 0));
    hashed
  end
  else leaves_array_ocaml ctx ~prefix leaves ~dst ~lo ~hi

let digest b =
  let ctx = init () in
  update ctx b;
  finalize ctx

let digest_string s = digest (Bytes.unsafe_of_string s)

let digest_sub b ~pos ~len =
  let ctx = init () in
  update_sub ctx b ~pos ~len;
  finalize ctx

let digest_concat parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  finalize ctx

(* One compression of [block] into [state], word arrays in and out;
   [step ctx] compresses [ctx.block] into [ctx.st]. *)
let words_step step state block =
  if Array.length state <> 8 then invalid_arg "Sha256.compress_words: state";
  if Array.length block <> 16 then invalid_arg "Sha256.compress_words: block";
  let ctx = init () in
  Array.iteri (fun i s -> set32u ctx.st (4 * i) (Int32.of_int s)) state;
  Array.iteri (fun i w -> store_be ctx.block (4 * i) (Int32.of_int w)) block;
  step ctx;
  state_words ctx.st

let compress_words = words_step (fun ctx -> compress ctx ctx.block 0)

let reference_compress_words =
  words_step (fun ctx ->
      expand ctx.w ctx.block 0;
      rounds ctx.st ctx.w)

let node_iv = state_words node_iv_state
