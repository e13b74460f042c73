type sha_block = {
  block_index : int;
  total_words : int;
  src : int;
  dst : int;
  block : int array;
  pre : int array;
  post : int array;
}

type kind = Exec | Sha_block of sha_block

type row = {
  cycle : int;
  pc : int;
  next_pc : int;
  kind : kind;
  rs1 : int;
  rs2 : int;
  rd : int;
  aux : int array;
  mem_pos : int;
  mem_count : int;
}

type mem_entry = { addr : int; time : int; write : bool; value : int }

let reg_base = 1 lsl 30
let ram_limit = 1 lsl 28
let sha_block_count total = ((4 * total) + 72) / 64

let sha_padded_word ~total w =
  let blocks = sha_block_count total in
  if w < total then None
  else if w = total then Some 0x80000000
  else if w = (16 * blocks) - 1 then Some ((32 * total) land 0xffffffff)
  else if w = (16 * blocks) - 2 then Some (((32 * total) lsr 32) land 0xffffffff)
  else Some 0

module Varint = Zkflow_util.Varint
module Column = Zkflow_util.Column

(* ---- int columns ----

   Int [i] of a column is [dir.(i lsr chunk_bits).(i land chunk_mask)].
   A recorder appends to the last chunk and starts a new one when it is
   full, so no int is copied as the column grows: only the directory,
   one pointer per chunk, doubles. A column of known length (a
   verifier's decoded leaves) is sized exactly, its last chunk short.
   Four divides [chunk], so an access-log entry never straddles two
   chunks. *)
let chunk_bits = 12
let chunk = 1 lsl chunk_bits
let chunk_mask = chunk - 1

type ints = { mutable dir : int array array; mutable len : int }

let growing () = { dir = [||]; len = 0 }

let sized n =
  let chunks = (n + chunk - 1) lsr chunk_bits in
  { dir = Array.init chunks (fun c -> Array.make (Int.min chunk (n - (c lsl chunk_bits))) 0); len = n }

let[@inline] get t i = t.dir.(i lsr chunk_bits).(i land chunk_mask)
let[@inline] set t i x = t.dir.(i lsr chunk_bits).(i land chunk_mask) <- x

let add_chunk t k =
  if k = Array.length t.dir then begin
    let dir = Array.make (Int.max 4 (2 * k)) [||] in
    Array.blit t.dir 0 dir 0 k;
    t.dir <- dir
  end;
  t.dir.(k) <- Array.make chunk 0

let[@inline] push t x =
  let i = t.len in
  if i land chunk_mask = 0 then add_chunk t (i lsr chunk_bits);
  Array.unsafe_set (Array.unsafe_get t.dir (i lsr chunk_bits)) (i land chunk_mask) x;
  t.len <- i + 1

(* ---- the rows ----

   Every field of every row in leaf order, in one column, and each
   row's end. A row's fields are cycle, pc, next_pc, the kind (0 exec,
   1 sha block), for a sha block its index, total_words, src, dst and
   its block, pre and post words each length-prefixed, then rs1, rs2,
   rd, the aux words length-prefixed, mem_pos and mem_count: leaf [r]
   of the rows column is the varints of row [r]'s fields. [refusal] is
   empty for recorded rows; for decoded ones it holds each leaf's
   refusal, "" for none. *)
type rows = { fields : ints; ends : ints; refusal : string array }

let recording () = { fields = growing (); ends = growing (); refusal = [||] }
let n_rows t = t.ends.len
let[@inline] first t r = if r = 0 then 0 else get t.ends (r - 1)

let open_row t ~cycle ~pc ~next_pc ~kind =
  let f = t.fields in
  push f cycle;
  push f pc;
  push f next_pc;
  push f kind

let push_words f a =
  push f (Array.length a);
  for i = 0 to Array.length a - 1 do
    push f a.(i)
  done

let sha_fields t ~block_index ~total_words ~src ~dst ~block ~pre ~post =
  let f = t.fields in
  push f block_index;
  push f total_words;
  push f src;
  push f dst;
  push_words f block;
  push_words f pre;
  push_words f post

let close_row t ~rs1 ~rs2 ~rd ~aux ~aux_len ~mem_pos ~mem_count =
  let f = t.fields in
  push f rs1;
  push f rs2;
  push f rd;
  push f aux_len;
  for i = 0 to aux_len - 1 do
    push f aux.(i)
  done;
  push f mem_pos;
  push f mem_count;
  push t.ends f.len

(* ---- the access log: four ints per entry, address, time, the write
   flag (0 or 1) and value ---- *)
type log = ints

let log_recording = growing
let n_entries log = log.len / 4

let log_access log ~addr ~time ~write ~value =
  let i = log.len in
  if i land chunk_mask = 0 then add_chunk log (i lsr chunk_bits);
  let c = Array.unsafe_get log.dir (i lsr chunk_bits) and j = i land chunk_mask in
  Array.unsafe_set c j addr;
  Array.unsafe_set c (j + 1) time;
  Array.unsafe_set c (j + 2) (Bool.to_int write);
  Array.unsafe_set c (j + 3) value;
  log.len <- i + 4

(* A recorded row owns the log entries after the previous row's. *)
let next_mem_pos t =
  let e = t.fields.len in
  if e = 0 then 0 else get t.fields (e - 2) + get t.fields (e - 1)

let exec_row t log ~pc ~next_pc ~rs1 ~rs2 ~rd ~aux ~aux_len =
  let mem_pos = next_mem_pos t in
  open_row t ~cycle:(n_rows t) ~pc ~next_pc ~kind:0;
  close_row t ~rs1 ~rs2 ~rd ~aux ~aux_len ~mem_pos ~mem_count:(n_entries log - mem_pos)

let sha_row t log ~pc ~next_pc ~block_index ~total_words ~src ~dst ~block ~pre ~post =
  let mem_pos = next_mem_pos t in
  open_row t ~cycle:(n_rows t) ~pc ~next_pc ~kind:1;
  sha_fields t ~block_index ~total_words ~src ~dst ~block ~pre ~post;
  close_row t ~rs1:0 ~rs2:0 ~rd:0 ~aux:[||] ~aux_len:0 ~mem_pos
    ~mem_count:(n_entries log - mem_pos)

let of_rows rows =
  let t = recording () in
  Array.iter
    (fun r ->
      (match r.kind with
       | Exec -> open_row t ~cycle:r.cycle ~pc:r.pc ~next_pc:r.next_pc ~kind:0
       | Sha_block { block_index; total_words; src; dst; block; pre; post } ->
         open_row t ~cycle:r.cycle ~pc:r.pc ~next_pc:r.next_pc ~kind:1;
         sha_fields t ~block_index ~total_words ~src ~dst ~block ~pre ~post);
      close_row t ~rs1:r.rs1 ~rs2:r.rs2 ~rd:r.rd ~aux:r.aux ~aux_len:(Array.length r.aux)
        ~mem_pos:r.mem_pos ~mem_count:r.mem_count)
    rows;
  t

let log_of_entries entries =
  let log = log_recording () in
  Array.iter
    (fun e -> log_access log ~addr:e.addr ~time:e.time ~write:e.write ~value:e.value)
    entries;
  log

(* ---- fields of a recorded row, read in place: an exec row's rs1
   follows its kind, and mem_pos and mem_count end every row ---- *)

let pc t r = get t.fields (first t r + 1)
let is_exec t r = get t.fields (first t r + 3) = 0
let rs1 t r = get t.fields (first t r + 4)
let rs2 t r = get t.fields (first t r + 5)

let aux_words t r ~from =
  let at = first t r + 7 in
  let n = get t.fields at - from in
  if n <= 0 then [||] else Array.init n (fun k -> get t.fields (at + 1 + from + k))

let mem_pos t r = get t.fields (get t.ends r - 2)
let mem_count t r = get t.fields (get t.ends r - 1)

(* ---- the encoders ----

   A leaf is the varints of a run of ints. Every leaf is sized first
   (the column's prefix sum), then chunks of leaves are written on the
   pool, each into its own byte range, so the column is the same at
   every job count. A negative int raises [Invalid_argument] from
   [Varint.size], before anything is written. The size and the bytes
   are [Varint]'s, spelled here so the loops make no call per int in
   the common range. *)

(* Below 2^35 a varint is one to five bytes, sized without a branch:
   the ints of a trace (cycle counts, register addresses at 2^30,
   32-bit words) vary in size from one to the next. A larger or
   negative int takes [Varint.size]. *)
let small = 1 lsl 35

let[@inline] small_size v =
  1 + Bool.to_int (v >= 0x80) + Bool.to_int (v >= 0x4000) + Bool.to_int (v >= 0x200000)
  + Bool.to_int (v >= 0x10000000)

let[@inline] varint_size v = if v >= 0 && v < small then small_size v else Varint.size v

(* One pass over the ints, chunk by chunk: [off.(r + 1)] is the byte
   size of the varints of ints [0, leaf_end r), leaf [r] ending at int
   [leaf_end r], the ends non-decreasing and none past [t.len]. *)
let leaf_offsets t n leaf_end =
  let off = Array.make (n + 1) 0 in
  let r = ref 0 and size = ref 0 in
  let stop = ref (if n = 0 then max_int else leaf_end 0) in
  while !stop = 0 do
    incr r;
    stop := if !r < n then leaf_end !r else max_int
  done;
  for c = 0 to ((t.len + chunk - 1) lsr chunk_bits) - 1 do
    let ints = Array.unsafe_get t.dir c and k = c lsl chunk_bits in
    for j = 0 to Int.min chunk (t.len - k) - 1 do
      size := !size + varint_size (Array.unsafe_get ints j);
      while !stop = k + j + 1 do
        Array.unsafe_set off (!r + 1) !size;
        incr r;
        stop := if !r < n then leaf_end !r else max_int
      done
    done
  done;
  off

(* The varints of ints [lo, hi) of [t], seven bits a byte, low first,
   the high bit set on every byte but the last, written from byte
   [at] of [b], whose size [leaf_offsets] has bounded. A trace's ints
   repeat their sizes with the row or entry layout, so the branch per
   byte predicts well here. *)
let put_ints b at t lo hi =
  let at = ref at and i = ref lo in
  while !i < hi do
    let c = Array.unsafe_get t.dir (!i lsr chunk_bits) in
    let j0 = !i land chunk_mask in
    let j1 = Int.min chunk (j0 + hi - !i) in
    for j = j0 to j1 - 1 do
      let v = ref (Array.unsafe_get c j) in
      while !v >= 0x80 do
        Bytes.unsafe_set b !at (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
        incr at;
        v := !v lsr 7
      done;
      Bytes.unsafe_set b !at (Char.unsafe_chr !v);
      incr at
    done;
    i := !i + (j1 - j0)
  done

(* A column of [n] leaves over the ints of [t], leaf [r] the varints
   of ints [leaf_start r, leaf_end r): sized in one pass, then its
   bytes written in chunks of leaves on the pool, each chunk one run
   of ints into its own byte range. *)
let encode_leaves t n ~leaf_start ~leaf_end =
  let off = leaf_offsets t n leaf_end in
  let col = { Column.data = Bytes.create off.(n); off } in
  Zkflow_parallel.Pool.parallel_for ~min_chunk:2048 n (fun lo hi ->
      if lo < hi then put_ints col.data off.(lo) t (leaf_start lo) (leaf_end (hi - 1)));
  col

let encode_rows t =
  encode_leaves t.fields (n_rows t) ~leaf_start:(first t) ~leaf_end:(get t.ends)

let encode_log log =
  encode_leaves log (n_entries log) ~leaf_start:(fun e -> 4 * e) ~leaf_end:(fun e -> (4 * e) + 4)

(* Row leaves are decoded in two steps. First every varint of a leaf,
   in order, into one int column shared by all the leaves decoded
   together, up to the leaf's end or the first varint that does not
   decode, whose refusal is kept. Then, per use, the row record is read
   from those ints with the checks of a sequential decode: a field past
   the last varint raises the kept refusal (or "truncated" at a clean
   end), and ints, or refused bytes, left after the last field are
   trailing bytes. So a leaf's verdict is the one reading its bytes
   field by field gives. *)
let decode_rows leaves =
  (* Each varint ends on a byte below 0x80. *)
  let bound = ref 0 in
  Array.iter
    (fun b ->
      for i = 0 to Bytes.length b - 1 do
        if Char.code (Bytes.unsafe_get b i) < 0x80 then incr bound
      done)
    leaves;
  let fields = sized !bound and ends = sized (Array.length leaves) in
  let refusal = Array.make (Array.length leaves) "" in
  let k = ref 0 in
  Array.iteri
    (fun r b ->
      let pos = ref 0 in
      (try
         while !pos < Bytes.length b do
           set fields !k (Varint.get b pos);
           incr k
         done
       with Invalid_argument msg -> refusal.(r) <- msg);
      set ends r !k)
    leaves;
  { fields; ends; refusal }

(* One parse's position in [t.fields], read field by field. *)
type cursor = { t : rows; mutable at : int; stop : int; kept : string }

let[@inline] next c =
  if c.at >= c.stop then
    invalid_arg (if c.kept = "" then "Varint.read: truncated" else c.kept);
  let x = get c.t.fields c.at in
  c.at <- c.at + 1;
  x

let words c =
  let n = next c in
  if n > 64 then failwith "trace row: implausible array";
  let a = Array.make n 0 in
  for i = 0 to n - 1 do
    a.(i) <- next c
  done;
  a

let row t r =
  let kept = if Array.length t.refusal = 0 then "" else t.refusal.(r) in
  let c = { t; at = first t r; stop = get t.ends r; kept } in
  match
    let cycle = next c in
    let pc = next c in
    let next_pc = next c in
    let kind =
      match next c with
      | 0 -> Exec
      | 1 ->
        let block_index = next c in
        let total_words = next c in
        let src = next c in
        let dst = next c in
        let block = words c in
        let pre = words c in
        let post = words c in
        if Array.length block <> 16 || Array.length pre <> 8 || Array.length post <> 8
        then failwith "trace row: bad sha shapes";
        Sha_block { block_index; total_words; src; dst; block; pre; post }
      | _ -> failwith "trace row: unknown kind"
    in
    let rs1 = next c in
    let rs2 = next c in
    let rd = next c in
    let aux = words c in
    let mem_pos = next c in
    let mem_count = next c in
    if c.at <> c.stop || c.kept <> "" then failwith "trace row: trailing bytes";
    { cycle; pc; next_pc; kind; rs1; rs2; rd; aux; mem_pos; mem_count }
  with
  | r -> Ok r
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let decode_row b = row (decode_rows [| b |]) 0

let log_make m = sized (4 * m)

(* The domain of the entries a machine can log, checked after the four
   varints are read. *)
let read_mem_into b pos dst r =
  let addr = Varint.get b pos in
  let time = Varint.get b pos in
  let w = Varint.get b pos in
  let value = Varint.get b pos in
  if w <> 0 && w <> 1 then Error "mem entry: bad write flag"
  else if value < 0 || value > 0xffffffff then Error "mem entry: value out of 32-bit range"
  else if not ((0 <= addr && addr < ram_limit) || (reg_base <= addr && addr < reg_base + 32))
  then Error "mem entry: address outside RAM and the register file"
  else begin
    set dst (4 * r) addr;
    set dst ((4 * r) + 1) time;
    set dst ((4 * r) + 2) w;
    set dst ((4 * r) + 3) value;
    Ok ()
  end

let mem_at a r =
  {
    addr = get a (4 * r);
    time = get a ((4 * r) + 1);
    write = get a ((4 * r) + 2) = 1;
    value = get a ((4 * r) + 3);
  }

let iter_log_chunks log f =
  for c = 0 to ((log.len + chunk - 1) lsr chunk_bits) - 1 do
    let k = c lsl chunk_bits in
    f (Array.unsafe_get log.dir c) (k lsr 2) ((Int.min chunk (log.len - k)) lsr 2)
  done

let decode_mem b =
  let a = log_make 1 and pos = ref 0 in
  match read_mem_into b pos a 0 with
  | _ when !pos <> Bytes.length b -> Error "mem entry: trailing bytes"
  | Ok () -> Ok (mem_at a 0)
  | Error _ as e -> e
  | exception Invalid_argument msg -> Error msg

(* Within one cycle a row reads before it writes, so reads sort first;
   two same-cycle accesses are never both writes. *)
let[@inline] order ~addr ~time ~write ~addr' ~time' ~write' =
  match Int.compare addr addr' with
  | 0 -> ( match Int.compare time time' with 0 -> Int.compare write write' | c -> c)
  | c -> c

let mem_order a b =
  order ~addr:a.addr ~time:a.time ~write:(Bool.to_int a.write) ~addr':b.addr ~time':b.time
    ~write':(Bool.to_int b.write)

(* ---- the address order ----

   The stable sort by address that the memory check commits, in one
   pass over the log and a radix sort of the entries outside the
   register file. A machine log is mostly register accesses, and 32
   buckets order those in the pass that reads them. The rest (RAM
   below [ram_limit], or any address of a hand-built log) are sorted
   by their offset from the least of them, 12 bits a pass, so a
   machine's RAM addresses take at most three passes and a compact
   data segment fewer. The order check rides along: a register's
   entries are compared in the first pass, as they arrive in log
   order, and the other entries once sorted. *)

let regs = 32
let radix_bits = 12

(* Whether (time, write) of entry [i] sorts after that of entry [k]. *)
let[@inline] later log i k =
  let ti = get log ((4 * i) + 1) and tk = get log ((4 * k) + 1) in
  ti > tk || (ti = tk && get log ((4 * i) + 2) > get log ((4 * k) + 2))

let address_order log =
  let n = n_entries log in
  let perm = Array.make n 0 in
  (* The first pass: register entries counted per register and checked
     against the register's previous entry (its index, time and write
     flag); every other entry's index kept in log order, with the
     range of their addresses and how many lie below the register
     file. *)
  let count = Array.make (regs + 1) 0 and last = Array.make (3 * regs) (-1) in
  let other = Array.make n 0 and key = Array.make n 0 in
  let m = ref 0 and lo = ref max_int and hi = ref min_int in
  let below = ref 0 and reg_break = ref None in
  for c = 0 to ((log.len + chunk - 1) lsr chunk_bits) - 1 do
    let ints = Array.unsafe_get log.dir c and first = (c lsl chunk_bits) lsr 2 in
    for j = 0 to (Int.min chunk (log.len - (c lsl chunk_bits)) lsr 2) - 1 do
      let i = first + j and a = Array.unsafe_get ints (4 * j) in
      let k = a - reg_base in
      if k >= 0 && k < regs then begin
        let t = Array.unsafe_get ints ((4 * j) + 1) and w = Array.unsafe_get ints ((4 * j) + 2) in
        let prev = last.(3 * k) and pt = last.((3 * k) + 1) in
        (if prev >= 0 && (pt > t || (pt = t && last.((3 * k) + 2) > w)) then
           match !reg_break with
           | Some (k', _, _) when k' <= k -> ()
           | _ -> reg_break := Some (k, prev, i));
        count.(k + 1) <- count.(k + 1) + 1;
        last.(3 * k) <- i;
        last.((3 * k) + 1) <- t;
        last.((3 * k) + 2) <- w
      end
      else begin
        Array.unsafe_set other !m i;
        Array.unsafe_set key !m a;
        incr m;
        if a < !lo then lo := a;
        if a > !hi then hi := a;
        if a < reg_base then incr below
      end
    done
  done;
  let m = !m and lo = !lo in
  (* The other entries, sorted stably by the offset of their address
     from [lo], read as unsigned so any range of ints sorts; each pass
     moves the addresses with the indices. *)
  let other, key =
    let width = ref 0 in
    while !width < Sys.int_size && (!hi - lo) lsr !width <> 0 do
      incr width
    done;
    if m < 2 || !width = 0 then (other, key)
    else begin
      let bits = Int.min radix_bits !width in
      let mask = (1 lsl bits) - 1 in
      let counts = Array.make (mask + 2) 0 in
      let src = ref (other, key) and dst = ref (Array.make m 0, Array.make m 0) in
      let shift = ref 0 in
      while !shift < !width do
        let (si, sk), (di, dk) = (!src, !dst) and sh = !shift in
        Array.fill counts 0 (mask + 2) 0;
        for j = 0 to m - 1 do
          let b = (((sk.(j) - lo) lsr sh) land mask) + 1 in
          counts.(b) <- counts.(b) + 1
        done;
        for b = 1 to mask do
          counts.(b) <- counts.(b) + counts.(b - 1)
        done;
        for j = 0 to m - 1 do
          let a = sk.(j) in
          let b = ((a - lo) lsr sh) land mask in
          let at = counts.(b) in
          di.(at) <- si.(j);
          dk.(at) <- a;
          counts.(b) <- at + 1
        done;
        src := (di, dk);
        dst := (si, sk);
        shift := sh + bits
      done;
      !src
    end
  in
  (* The other entries below the register file, the register file in
     register order, then the other entries above it. *)
  Array.blit other 0 perm 0 !below;
  for k = 1 to regs do
    count.(k) <- count.(k) + count.(k - 1)
  done;
  let at = Array.map (( + ) !below) count in
  for c = 0 to ((log.len + chunk - 1) lsr chunk_bits) - 1 do
    let ints = Array.unsafe_get log.dir c and first = (c lsl chunk_bits) lsr 2 in
    for j = 0 to (Int.min chunk (log.len - (c lsl chunk_bits)) lsr 2) - 1 do
      let k = Array.unsafe_get ints (4 * j) - reg_base in
      if k >= 0 && k < regs then begin
        perm.(at.(k)) <- first + j;
        at.(k) <- at.(k) + 1
      end
    done
  done;
  Array.blit other !below perm (!below + count.(regs)) (m - !below);
  (* The first break along [perm]: among the other entries below the
     register file, then the registers, then the rest. *)
  let other_break from upto =
    let rec scan j =
      if j >= upto then None
      else
        let i = other.(j - 1) and k = other.(j) in
        if key.(j - 1) = key.(j) && later log i k then Some (i, k) else scan (j + 1)
    in
    scan from
  in
  let break =
    match other_break 1 !below with
    | Some _ as b -> b
    | None -> (
      match !reg_break with
      | Some (_, i, k) -> Some (i, k)
      | None -> other_break (Int.max 1 !below) m)
  in
  (perm, break)

let equal_row a b = a = b

let pp_row ppf r =
  Format.fprintf ppf "c%d pc=%d→%d rs1=%d rs2=%d rd=%d mem@%d+%d" r.cycle r.pc
    r.next_pc r.rs1 r.rs2 r.rd r.mem_pos r.mem_count
