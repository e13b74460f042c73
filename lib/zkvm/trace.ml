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

(* The encoders size each leaf exactly with [Varint.size] and write it
   in place with [Varint.put]. A negative field raises
   [Invalid_argument] from [Varint.size], before anything is
   written. *)

let words_size a =
  Array.fold_left (fun n w -> n + Varint.size w) (Varint.size (Array.length a)) a

let put_words b off a =
  let off = ref (Varint.put b off (Array.length a)) in
  for i = 0 to Array.length a - 1 do
    off := Varint.put b !off a.(i)
  done;
  !off

(* [row_size] and [put_row] list the fields in the same order. *)
let row_size r =
  let v = Varint.size in
  v r.cycle + v r.pc + v r.next_pc
  + (match r.kind with
     | Exec -> v 0
     | Sha_block { block_index; total_words; src; dst; block; pre; post } ->
       v 1 + v block_index + v total_words + v src + v dst + words_size block
       + words_size pre + words_size post)
  + v r.rs1 + v r.rs2 + v r.rd + words_size r.aux + v r.mem_pos + v r.mem_count

let put_row b off r =
  let off = Varint.put b off r.cycle in
  let off = Varint.put b off r.pc in
  let off = Varint.put b off r.next_pc in
  let off =
    match r.kind with
    | Exec -> Varint.put b off 0
    | Sha_block { block_index; total_words; src; dst; block; pre; post } ->
      let off = Varint.put b off 1 in
      let off = Varint.put b off block_index in
      let off = Varint.put b off total_words in
      let off = Varint.put b off src in
      let off = Varint.put b off dst in
      let off = put_words b off block in
      let off = put_words b off pre in
      put_words b off post
  in
  let off = Varint.put b off r.rs1 in
  let off = Varint.put b off r.rs2 in
  let off = Varint.put b off r.rd in
  let off = put_words b off r.aux in
  let off = Varint.put b off r.mem_pos in
  ignore (Varint.put b off r.mem_count : int)

let mem_size e =
  Varint.size e.addr + Varint.size e.time + Varint.size (Bool.to_int e.write)
  + Varint.size e.value

let put_mem b off e =
  let off = Varint.put b off e.addr in
  let off = Varint.put b off e.time in
  let off = Varint.put b off (Bool.to_int e.write) in
  ignore (Varint.put b off e.value : int)

(* A whole array as one column: the sizes first (the column's prefix
   sum), then chunks of entries written on the pool, each leaf into its
   own byte range. *)
let encode_all ~size ~put a =
  let col = Zkflow_util.Column.alloc (Array.length a) ~size:(fun i -> size a.(i)) in
  Zkflow_parallel.Pool.parallel_for ~min_chunk:2048 (Array.length a) (fun lo hi ->
      for i = lo to hi - 1 do
        put col.data col.off.(i) a.(i)
      done);
  col

let encode_rows = encode_all ~size:row_size ~put:put_row
let encode_memlog = encode_all ~size:mem_size ~put:put_mem

(* Row leaves are decoded in two steps. First every varint of a leaf,
   in order, into one int array shared by all the leaves decoded
   together, up to the leaf's end or the first varint that does not
   decode, whose refusal is kept. Then, per use, the row record is read
   from those ints with the checks of a sequential decode: a field past
   the last varint raises the kept refusal (or "truncated" at a clean
   end), and ints, or refused bytes, left after the last field are
   trailing bytes. So a leaf's verdict is the one reading its bytes
   field by field gives. *)
type rows = { fields : int array; start : int array; refusal : string array }

let decode_rows leaves =
  (* Each varint ends on a byte below 0x80. *)
  let bound = ref 0 in
  Array.iter
    (fun b ->
      for i = 0 to Bytes.length b - 1 do
        if Char.code (Bytes.unsafe_get b i) < 0x80 then incr bound
      done)
    leaves;
  let bound = !bound in
  let fields = Array.make bound 0 and start = Array.make (Array.length leaves + 1) 0 in
  let refusal = Array.make (Array.length leaves) "" in
  let k = ref 0 in
  Array.iteri
    (fun r b ->
      let pos = ref 0 in
      (try
         while !pos < Bytes.length b do
           fields.(!k) <- Varint.get b pos;
           incr k
         done
       with Invalid_argument msg -> refusal.(r) <- msg);
      start.(r + 1) <- !k)
    leaves;
  { fields; start; refusal }

(* One parse's position in [t.fields], read field by field. *)
type cursor = { t : rows; mutable at : int; stop : int; kept : string }

let[@inline] next c =
  if c.at >= c.stop then
    invalid_arg (if c.kept = "" then "Varint.read: truncated" else c.kept);
  let x = c.t.fields.(c.at) in
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
  let c = { t; at = t.start.(r); stop = t.start.(r + 1); kept = t.refusal.(r) } in
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
    dst.(4 * r) <- addr;
    dst.((4 * r) + 1) <- time;
    dst.((4 * r) + 2) <- w;
    dst.((4 * r) + 3) <- value;
    Ok ()
  end

let mem_at a r =
  { addr = a.(4 * r); time = a.((4 * r) + 1); write = a.((4 * r) + 2) = 1; value = a.((4 * r) + 3) }

let decode_mem b =
  let a = Array.make 4 0 and pos = ref 0 in
  match read_mem_into b pos a 0 with
  | _ when !pos <> Bytes.length b -> Error "mem entry: trailing bytes"
  | Ok () -> Ok (mem_at a 0)
  | Error _ as e -> e
  | exception Invalid_argument msg -> Error msg

let mem_order a b =
  match Int.compare a.addr b.addr with
  | 0 -> (
    match Int.compare a.time b.time with
    | 0 ->
      (* Within one cycle a row reads before it writes, so reads sort
         first; two same-cycle accesses are never both writes. *)
      Bool.compare a.write b.write
    | c -> c)
  | c -> c

let equal_row a b = a = b

let pp_row ppf r =
  Format.fprintf ppf "c%d pc=%d→%d rs1=%d rs2=%d rd=%d mem@%d+%d" r.cycle r.pc
    r.next_pc r.rs1 r.rs2 r.rd r.mem_pos r.mem_count
