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

(* [get] for the encoders, whose runs lie below [t.len] by
   construction: the ends they read are positions already written. *)
let[@inline] get_in t i =
  Array.unsafe_get (Array.unsafe_get t.dir (i lsr chunk_bits)) (i land chunk_mask)

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
   are [Varint]'s, spelled here so the loops make no call per int. *)

let[@inline] varint_size v =
  if v < 0x80 then if v < 0 then Varint.size v else 1
  else if v < 0x4000 then 2
  else if v < 0x200000 then 3
  else if v < 0x10000000 then 4
  else Varint.size v

let run_size t lo hi =
  let n = ref 0 in
  for i = lo to hi - 1 do
    n := !n + varint_size (get_in t i)
  done;
  !n

(* The bytes of a run sized by [run_size]: seven bits a byte, low
   first, the high bit set on every byte but the last. *)
let put_run b off t lo hi =
  let off = ref off in
  for i = lo to hi - 1 do
    let v = ref (get_in t i) in
    while !v >= 0x80 do
      Bytes.set b !off (Char.unsafe_chr (0x80 lor (!v land 0x7f)));
      incr off;
      v := !v lsr 7
    done;
    Bytes.set b !off (Char.unsafe_chr !v);
    incr off
  done

let encode_rows t =
  let n = n_rows t in
  let off = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    off.(r + 1) <- off.(r) + run_size t.fields (first t r) (get t.ends r)
  done;
  let col = { Column.data = Bytes.create off.(n); off } in
  Zkflow_parallel.Pool.parallel_for ~min_chunk:2048 n (fun lo hi ->
      for r = lo to hi - 1 do
        put_run col.data off.(r) t.fields (first t r) (get t.ends r)
      done);
  col

let encode_log log =
  let n = n_entries log in
  let off = Array.make (n + 1) 0 in
  for e = 0 to n - 1 do
    off.(e + 1) <- off.(e) + run_size log (4 * e) ((4 * e) + 4)
  done;
  let col = { Column.data = Bytes.create off.(n); off } in
  Zkflow_parallel.Pool.parallel_for ~min_chunk:2048 n (fun lo hi ->
      for e = lo to hi - 1 do
        put_run col.data off.(e) log (4 * e) ((4 * e) + 4)
      done);
  col

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

let iter_log log f =
  for r = 0 to n_entries log - 1 do
    let i = 4 * r in
    f r (get_in log i) (get_in log (i + 1)) (get_in log (i + 2)) (get_in log (i + 3))
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

let addresses log =
  let a = Array.make (n_entries log) 0 in
  for r = 0 to Array.length a - 1 do
    a.(r) <- get_in log (4 * r)
  done;
  a

let first_unordered log perm =
  let rec scan j =
    if j >= Array.length perm then None
    else
      let i = 4 * perm.(j - 1) and k = 4 * perm.(j) in
      if
        order ~addr:(get log i) ~time:(get log (i + 1)) ~write:(get log (i + 2))
          ~addr':(get log k) ~time':(get log (k + 1)) ~write':(get log (k + 2))
        > 0
      then Some j
      else scan (j + 1)
  in
  scan 1

let equal_row a b = a = b

let pp_row ppf r =
  Format.fprintf ppf "c%d pc=%d→%d rs1=%d rs2=%d rd=%d mem@%d+%d" r.cycle r.pc
    r.next_pc r.rs1 r.rs2 r.rd r.mem_pos r.mem_count
