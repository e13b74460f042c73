open Zkflow_zkvm
open Asm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let run ?(input = [||]) ?trace ?max_cycles items =
  Machine.run ?trace ?max_cycles (assemble items) ~input

(* Run a fragment that leaves its result in a0, then commits and halts. *)
let eval ?(input = [||]) items =
  let r = run ~input (items @ [ commit a0; halt 0 ]) in
  check_int "exit code" 0 r.Machine.exit_code;
  r.Machine.journal.(0)

(* ---- ALU semantics ---- *)

let test_add_wraps () =
  check_int "wrap" 0 (eval [ li t0 0xffffffff; addi t0 t0 1; mv a0 t0 ]);
  check_int "plain" 7 (eval [ li t0 3; li t1 4; add a0 t0 t1 ])

let test_sub_wraps () =
  check_int "borrow" 0xffffffff (eval [ li t0 0; li t1 1; sub a0 t0 t1 ])

let test_mul_truncates () =
  (* 0x10000 * 0x10000 = 2^32 → 0 in 32 bits *)
  check_int "2^32" 0 (eval [ li t0 0x10000; mul a0 t0 t0 ]);
  check_int "small" 56088 (eval [ li t0 123; li t1 456; mul a0 t0 t1 ])

let test_bitops () =
  check_int "and" 0b1000 (eval [ li t0 0b1100; li t1 0b1010; and_ a0 t0 t1 ]);
  check_int "or" 0b1110 (eval [ li t0 0b1100; li t1 0b1010; or_ a0 t0 t1 ]);
  check_int "xor" 0b0110 (eval [ li t0 0b1100; li t1 0b1010; xor a0 t0 t1 ])

let test_shifts () =
  check_int "sll" 0x80000000 (eval [ li t0 1; li t1 31; sll a0 t0 t1 ]);
  check_int "sll drops" 0 (eval [ li t0 2; li t1 31; sll a0 t0 t1 ]);
  check_int "srl" 1 (eval [ li t0 0x80000000; li t1 31; srl a0 t0 t1 ]);
  (* arithmetic shift keeps the sign bit *)
  check_int "sra" 0xffffffff (eval [ li t0 0x80000000; li t1 31; sra a0 t0 t1 ]);
  check_int "sra positive" 0x20000000 (eval [ li t0 0x40000000; li t1 1; sra a0 t0 t1 ]);
  (* shift amount uses low 5 bits *)
  check_int "shamt mod 32" 2 (eval [ li t0 1; li t1 33; sll a0 t0 t1 ])

let test_slt_signed_vs_unsigned () =
  (* -1 (0xffffffff) < 1 signed, but not unsigned *)
  check_int "slt" 1 (eval [ li t0 0xffffffff; li t1 1; slt a0 t0 t1 ]);
  check_int "sltu" 0 (eval [ li t0 0xffffffff; li t1 1; sltu a0 t0 t1 ]);
  check_int "slti" 1 (eval [ li t0 0xffffffff; slti a0 t0 1 ]);
  check_int "sltiu" 0 (eval [ li t0 0xffffffff; sltiu a0 t0 1 ])

let test_x0_hardwired () =
  check_int "write discarded" 0 (eval [ li zero 42; mv a0 zero ]);
  check_int "add to x0 discarded" 0 (eval [ li t0 7; add zero t0 t0; mv a0 zero ])

(* ---- Memory ---- *)

let test_memory_roundtrip () =
  check_int "load after store" 99
    (eval [ li t0 1000; li t1 99; sw t1 t0 0; lw a0 t0 0 ])

let test_memory_zero_initialised () =
  check_int "fresh read" 0 (eval [ li t0 12345; lw a0 t0 0 ])

let test_memory_offsets () =
  check_int "offset addressing" 5
    (eval [ li t0 2000; li t1 5; sw t1 t0 3; addi t0 t0 3; lw a0 t0 0 ])

(* ---- Control flow ---- *)

let test_branch_taken_and_not () =
  check_int "beq taken" 1
    (eval [ li t0 5; li t1 5; beq t0 t1 "yes"; li a0 0; halt 0; label "yes"; li a0 1 ]);
  check_int "bne not taken" 0
    (eval [ li t0 5; li t1 5; bne t0 t1 "yes"; li a0 0; j "end"; label "yes"; li a0 1; label "end" ])

let test_signed_branches () =
  check_int "blt signed" 1
    (eval [ li t0 0xffffffff; li t1 0; blt t0 t1 "yes"; li a0 0; j "end"; label "yes"; li a0 1; label "end" ]);
  check_int "bltu unsigned" 0
    (eval [ li t0 0xffffffff; li t1 0; bltu t0 t1 "yes"; li a0 0; j "end"; label "yes"; li a0 1; label "end" ])

let test_loop_sum () =
  (* sum 1..10 = 55 *)
  check_int "loop" 55
    (eval
       [
         li t0 10; li a0 0;
         label "loop";
         beq t0 zero "done";
         add a0 a0 t0;
         addi t0 t0 (-1);
         j "loop";
         label "done";
       ])

let test_call_ret () =
  check_int "function call" 42
    (eval
       [
         li a0 21;
         call "double";
         j "end";
         label "double";
         add a0 a0 a0;
         ret;
         label "end";
       ])

(* ---- Host calls ---- *)

let test_read_and_commit () =
  let r =
    run ~input:[| 11; 22; 33 |]
      [ read_word t0; read_word t1; add t2 t0 t1; commit t2; commit t0; halt 0 ]
  in
  Alcotest.(check (array int)) "journal" [| 33; 11 |] r.Machine.journal;
  (* block calls: three words into RAM in one row, then out in one *)
  let r =
    run ~trace:true ~input:[| 11; 22; 33 |]
      [ li t0 40; li t1 3; read_block ~dst:t0 ~count:t1; lw t2 t0 1; commit t2;
        commit_block ~src:t0 ~count:t1; halt 0 ]
  in
  Alcotest.(check (array int)) "block journal" [| 22; 11; 22; 33 |] r.Machine.journal;
  let blocks =
    List.filter
      (fun (row : Trace.row) -> row.Trace.rs1 >= 6 && Array.length row.Trace.aux = 5)
      (Array.to_list r.Machine.rows)
  in
  Alcotest.(check (list (pair int int))) "one row per block call: its words and accesses"
    [ (3, 7); (3, 7) ]
    (List.map (fun (row : Trace.row) -> (row.Trace.aux.(0), row.Trace.mem_count)) blocks)

let test_input_avail () =
  check_int "avail" 3 (eval ~input:[| 1; 2; 3 |] [ input_avail a0 ]);
  check_int "avail after read" 2
    (eval ~input:[| 1; 2; 3 |] [ read_word t0; input_avail a0 ])

let test_exit_code () =
  let r = run [ halt 7 ] in
  check_int "code" 7 r.Machine.exit_code

let test_debug_collects () =
  let r = run [ li t0 5; debug t0; li t0 6; debug t0; halt 0 ] in
  Alcotest.(check (list int)) "debug" [ 5; 6 ] r.Machine.debug

let test_journal_bytes () =
  let b = Machine.journal_bytes [| 0x01020304; 0xffffffff |] in
  Alcotest.(check string) "big-endian words" "\x01\x02\x03\x04\xff\xff\xff\xff"
    (Bytes.to_string b)

(* ---- Traps ---- *)

let contains_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let expect_trap ?input ?max_cycles items substring =
  match run ?input ?max_cycles items with
  | exception Machine.Trap { reason; _ } ->
    check_bool
      (Printf.sprintf "reason %S contains %S" reason substring)
      true
      (contains_substring reason substring)
  | _ -> Alcotest.fail "expected trap"

let test_trap_read_past_input () =
  expect_trap ~input:[||] [ read_word t0; halt 0 ] "input";
  let block call ~addr ~count =
    [ li t0 addr; li t1 count; call t0 t1; halt 0 ]
  and read dst count = read_block ~dst ~count
  and commit src count = commit_block ~src ~count in
  expect_trap ~input:[| 1; 2 |] (block read ~addr:40 ~count:3) "input";
  expect_trap ~input:[| 1 |] (block read ~addr:40 ~count:0) "count 0 outside 1..8";
  expect_trap (block commit ~addr:40 ~count:9) "count 9 outside 1..8";
  expect_trap (block commit ~addr:(Trace.ram_limit - 2) ~count:3) "words outside RAM"

let test_trap_pc_out_of_range () =
  expect_trap [ li t0 1 ] "pc"

let test_trap_bad_ram_address () =
  expect_trap [ li t0 0x7fffffff; lw a0 t0 0; halt 0 ] "RAM"

let test_trap_unknown_ecall () =
  expect_trap [ li a0 99; ecall; halt 0 ] "ecall"

let test_trap_cycle_limit () =
  expect_trap ~max_cycles:100 [ label "spin"; j "spin" ] "cycle limit"

(* ---- SHA accelerator ---- *)

let store_input_words ~base n =
  (* read n words from input into memory at [base]. *)
  [ li a0 base; li a1 n; call "gl_read_words" ]

let sha_guest n =
  (* hash n input words, commit the 8 digest words *)
  store_input_words ~base:1000 n
  @ [
      li s9 1000; li s10 2000;
      li t4 n;
      sha ~src:s9 ~words:t4 ~dst:s10;
      li a0 2000; li a1 8; call "gl_commit_words";
      halt 0;
      Guestlib.read_words_fn;
      Guestlib.commit_words_fn;
    ]

let host_digest_of_words ws =
  let b = Bytes.create (4 * Array.length ws) in
  Array.iteri (fun i w -> Bytes.set_int32_be b (4 * i) (Int32.of_int w)) ws;
  Zkflow_hash.Sha256.digest b

let test_sha_matches_host n () =
  let rng = Zkflow_util.Rng.create (Int64.of_int (1000 + n)) in
  let input = Array.init n (fun _ -> Int64.to_int (Zkflow_util.Rng.next_int64 rng) land 0xffffffff) in
  let r = run ~input (sha_guest n) in
  let got = Guestlib.digest_of_words r.Machine.journal in
  Alcotest.(check string)
    (Printf.sprintf "sha of %d words" n)
    (Zkflow_util.Hexcodec.encode (host_digest_of_words input))
    (Zkflow_util.Hexcodec.encode got)

let test_sha_cycle_cost () =
  (* Block arithmetic: a message of n words takes ⌈(4n + 9) / 64⌉
     compression blocks, each one trace row. 13 words → 1 block;
     14, 15, 16 words → 2 blocks. *)
  let cycles n =
    let r = run ~input:(Array.make n 7) (sha_guest n) in
    r.Machine.cycles
  in
  let c13 = cycles 13 and c14 = cycles 14 in
  let c15 = cycles 15 and c16 = cycles 16 in
  let per_word = c16 - c15 in
  check_int "same block count, uniform word cost" per_word (c15 - c14);
  check_int "block boundary adds one row" (per_word + 1) (c14 - c13)

(* ---- Guestlib: leaf hashes + merkle root vs host tree ---- *)

let merkle_guest n =
  (* read n 8-word entries 11 words apart, compute leaf hashes, then
     the root; commit the root. *)
  [
    li a0 4003; li a1 n; call "gl_read_entries";
    li a0 4003; li a1 n; li a2 20000; call "gl_leaf_hashes";
    li a0 20000; li a1 n; call "gl_merkle_root";
    li a0 20000; li a1 8; call "gl_commit_words";
    halt 0;
    Guestlib.all_fns;
  ]

let test_merkle_root_matches_host n () =
  let rng = Zkflow_util.Rng.create (Int64.of_int (77 + n)) in
  let entries =
    Array.init n (fun _ ->
        Array.init 8 (fun _ -> Int64.to_int (Zkflow_util.Rng.next_int64 rng) land 0xffffffff))
  in
  let input = Array.concat (Array.to_list entries) in
  let r = run ~input (merkle_guest n) in
  let got = Guestlib.digest_of_words r.Machine.journal in
  let host_leaves =
    Array.map
      (fun e ->
        let b = Bytes.create 32 in
        Array.iteri (fun i w -> Bytes.set_int32_be b (4 * i) (Int32.of_int w)) e;
        b)
      entries
  in
  let expected =
    Zkflow_merkle.Tree.root
      (Zkflow_merkle.Tree.of_leaves ~node:Zkflow_hash.Sha256.digest64
         (Zkflow_util.Column.of_array host_leaves))
  in
  Alcotest.(check string)
    (Printf.sprintf "root over %d entries" n)
    (Zkflow_hash.Digest32.to_hex expected)
    (Zkflow_util.Hexcodec.encode got)

(* ---- Trace invariants ---- *)

let traced_result () =
  run ~trace:true ~input:[| 5; 9 |]
    [
      read_word t0;
      read_word t1;
      add t2 t0 t1;
      li t3 100;
      sw t2 t3 0;
      lw t4 t3 0;
      commit t4;
      li s9 100; li t5 1;
      sha ~src:s9 ~words:t5 ~dst:s10;
      halt 0;
    ]

let test_trace_row_count_equals_cycles () =
  let r = traced_result () in
  check_int "rows = cycles" r.Machine.cycles (Array.length r.Machine.rows)

let test_trace_rows_are_contiguous () =
  let r = traced_result () in
  Array.iteri
    (fun i row ->
      check_int "cycle" i row.Trace.cycle;
      if i < Array.length r.Machine.rows - 1 then
        check_int "next_pc chains" r.Machine.rows.(i + 1).Trace.pc row.Trace.next_pc)
    r.Machine.rows

let test_trace_memlog_partition () =
  (* Every access-log entry is owned by exactly one row, in order. *)
  let r = traced_result () in
  let pos = ref 0 in
  Array.iter
    (fun row ->
      check_int "mem_pos" !pos row.Trace.mem_pos;
      for k = !pos to !pos + row.Trace.mem_count - 1 do
        check_int "entry time" row.Trace.cycle r.Machine.memlog.(k).Trace.time
      done;
      pos := !pos + row.Trace.mem_count)
    r.Machine.rows;
  check_int "log fully covered" (Array.length r.Machine.memlog) !pos

let test_trace_last_row_self_loop () =
  let r = traced_result () in
  let last = r.Machine.rows.(Array.length r.Machine.rows - 1) in
  check_int "halt self-loop" last.Trace.pc last.Trace.next_pc

let test_trace_row_serialization_roundtrip () =
  let r = traced_result () in
  let col = Trace.encode_rows r.Machine.rows in
  Array.iteri
    (fun i row ->
      match Trace.decode_row (Zkflow_util.Column.leaf col i) with
      | Ok row' -> check_bool "roundtrip" true (Trace.equal_row row row')
      | Error e -> Alcotest.fail e)
    r.Machine.rows

let test_trace_mem_serialization_roundtrip () =
  let r = traced_result () in
  let col = Trace.encode_memlog r.Machine.memlog in
  Array.iteri
    (fun i e ->
      match Trace.decode_mem (Zkflow_util.Column.leaf col i) with
      | Ok e' -> check_bool "roundtrip" true (e = e')
      | Error msg -> Alcotest.fail msg)
    r.Machine.memlog

(* Buffer-based encoders: the byte reference for each leaf of
   [Trace.encode_rows] and [Trace.encode_memlog]. *)
let reference_encode_row (r : Trace.row) =
  let buf = Buffer.create 96 in
  let v = Zkflow_util.Varint.write buf in
  let words a = v (Array.length a); Array.iter v a in
  v r.Trace.cycle;
  v r.Trace.pc;
  v r.Trace.next_pc;
  (match r.Trace.kind with
   | Trace.Exec -> v 0
   | Trace.Sha_block { block_index; total_words; src; dst; block; pre; post } ->
     v 1;
     v block_index;
     v total_words;
     v src;
     v dst;
     words block;
     words pre;
     words post);
  v r.Trace.rs1;
  v r.Trace.rs2;
  v r.Trace.rd;
  words r.Trace.aux;
  v r.Trace.mem_pos;
  v r.Trace.mem_count;
  Buffer.to_bytes buf

let reference_encode_mem (e : Trace.mem_entry) =
  let buf = Buffer.create 16 in
  List.iter (Zkflow_util.Varint.write buf)
    [ e.Trace.addr; e.Trace.time; (if e.Trace.write then 1 else 0); e.Trace.value ];
  Buffer.to_bytes buf

(* Fields of every varint width, up to the 9-byte ones. *)
let gen_field =
  QCheck.Gen.(
    frequency
      [
        (2, int_bound 0x7f);
        (2, int_range 0x80 0xffffffff);
        (1, oneofl [ 0x7f; 0x80; 0x3fff; 0x4000; 0xffffffff; 1 lsl 40; max_int ]);
      ])

let gen_row =
  let open QCheck.Gen in
  let words n = array_size (return n) gen_field in
  let kind =
    frequency
      [
        (1, return Trace.Exec);
        ( 1,
          map
            (fun ((block_index, total_words), (src, dst), (block, pre, post)) ->
              Trace.Sha_block { block_index; total_words; src; dst; block; pre; post })
            (triple (pair gen_field gen_field) (pair gen_field gen_field)
               (triple (words 16) (words 8) (words 8))) );
      ]
  in
  map
    (fun ((cycle, pc, next_pc), (kind, aux), (rs1, rs2, rd), (mem_pos, mem_count)) ->
      { Trace.cycle; pc; next_pc; kind; rs1; rs2; rd; aux; mem_pos; mem_count })
    (quad (triple gen_field gen_field gen_field)
       (pair kind (array_size (int_bound 2) gen_field))
       (triple gen_field gen_field gen_field) (pair gen_field gen_field))

(* Leaf i of the column is the reference encoding of entry i, and
   the column holds nothing else. *)
let column_matches reference col a =
  Zkflow_util.Column.length col = Array.length a
  && Bytes.length col.Zkflow_util.Column.data = col.off.(Array.length a)
  && col.off.(0) = 0
  && Array.for_all Fun.id
       (Array.mapi (fun i x -> Bytes.equal (Zkflow_util.Column.leaf col i) (reference x)) a)

let prop_encode_row_matches_reference =
  QCheck.Test.make ~name:"encode_rows leaf i = Buffer reference" ~count:200
    (QCheck.make
       ~print:(fun rows ->
         String.concat "; " (Array.to_list (Array.map (Format.asprintf "%a" Trace.pp_row) rows)))
       QCheck.Gen.(array_size (int_bound 8) gen_row))
    (fun rows ->
      let col = Trace.encode_rows rows in
      column_matches reference_encode_row col rows
      && Array.for_all
           (fun (i, r) -> Trace.decode_row (Zkflow_util.Column.leaf col i) = Ok r)
           (Array.mapi (fun i r -> (i, r)) rows))

(* The row decoder as a sequential read of the leaf's bytes, field by
   field: the reference [Trace.decode_rows] and [Trace.row] must give
   the same row or the same refusal on any bytes. *)
let sequential_decode_row b =
  match
    let off = ref 0 in
    let v () =
      let x, o = Zkflow_util.Varint.read b !off in
      off := o;
      x
    in
    let words () =
      let n = v () in
      if n > 64 then failwith "trace row: implausible array";
      Array.init n (fun _ -> v ())
    in
    let cycle = v () in
    let pc = v () in
    let next_pc = v () in
    let kind =
      match v () with
      | 0 -> Trace.Exec
      | 1 ->
        let block_index = v () in
        let total_words = v () in
        let src = v () in
        let dst = v () in
        let block = words () in
        let pre = words () in
        let post = words () in
        if Array.length block <> 16 || Array.length pre <> 8 || Array.length post <> 8 then
          failwith "trace row: bad sha shapes";
        Trace.Sha_block { block_index; total_words; src; dst; block; pre; post }
      | _ -> failwith "trace row: unknown kind"
    in
    let rs1 = v () in
    let rs2 = v () in
    let rd = v () in
    let aux = words () in
    let mem_pos = v () in
    let mem_count = v () in
    if !off <> Bytes.length b then failwith "trace row: trailing bytes";
    { Trace.cycle; pc; next_pc; kind; rs1; rs2; rd; aux; mem_pos; mem_count }
  with
  | r -> Ok r
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

(* Encoded rows, each kept, cut short, extended by junk, or with one
   byte changed, decoded together. *)
let prop_decode_rows_matches_sequential =
  let mutate =
    QCheck.Gen.(
      pair (int_bound 3) (pair nat (int_bound 255)) >|= fun (how, (at, byte)) b ->
      let n = Bytes.length b in
      match how with
      | 0 -> b
      | 1 -> Bytes.sub b 0 (if n = 0 then 0 else at mod n)
      | 2 -> Bytes.cat b (Bytes.make (1 + (at mod 12)) (Char.chr byte))
      | _ ->
        let b = Bytes.copy b in
        if n > 0 then Bytes.set b (at mod n) (Char.chr byte);
        b)
  in
  QCheck.Test.make ~name:"decode_rows then row = sequential decode" ~count:300
    (QCheck.make QCheck.Gen.(array_size (int_bound 8) (pair gen_row mutate)))
    (fun cases ->
      let col = Trace.encode_rows (Array.map fst cases) in
      let leaves = Array.mapi (fun i (_, f) -> f (Zkflow_util.Column.leaf col i)) cases in
      let t = Trace.decode_rows leaves in
      Array.for_all Fun.id
        (Array.mapi (fun i b -> Trace.row t i = sequential_decode_row b) leaves))

let prop_encode_mem_matches_reference =
  QCheck.Test.make ~name:"encode_memlog leaf i = Buffer reference" ~count:200
    (QCheck.make
       QCheck.Gen.(
         array_size (int_bound 8)
           (map
              (fun ((addr, time), (write, value)) -> { Trace.addr; time; write; value })
              (pair (pair gen_field gen_field) (pair bool gen_field)))))
    (fun log -> column_matches reference_encode_mem (Trace.encode_memlog log) log)

let test_encoders_refuse_negative_fields () =
  let raises what f =
    match f () with
    | (_ : Zkflow_util.Column.t) -> Alcotest.failf "%s: encoded" what
    | exception Invalid_argument _ -> ()
  in
  let r = (traced_result ()).Machine.rows.(0) in
  (* a good entry first: nothing is written before the refusal *)
  raises "row rd" (fun () -> Trace.encode_rows [| r; { r with Trace.rd = -1 } |]);
  raises "row aux" (fun () -> Trace.encode_rows [| r; { r with Trace.aux = [| 3; -2 |] } |]);
  let e = { Trace.addr = 0; time = 0; write = false; value = 0 } in
  raises "mem time" (fun () -> Trace.encode_memlog [| e; { e with Trace.time = -1 } |]);
  raises "mem value" (fun () -> Trace.encode_memlog [| e; { e with Trace.value = min_int } |])

let test_trace_off_is_empty () =
  let r = run ~input:[| 1 |] [ read_word t0; halt 0 ] in
  check_int "no rows" 0 (Array.length r.Machine.rows);
  check_int "no memlog" 0 (Array.length r.Machine.memlog)

let test_trace_register_reads_logged () =
  let r = run ~trace:true [ li t0 3; li t1 4; add t2 t0 t1; halt 0 ] in
  (* add row owns: read t0 (=3), read t1 (=4), write t2 (=7). *)
  let row = r.Machine.rows.(2) in
  check_int "3 accesses" 3 row.Trace.mem_count;
  let e k = r.Machine.memlog.(row.Trace.mem_pos + k) in
  check_int "rs1 value" 3 (e 0).Trace.value;
  check_bool "rs1 is read" false (e 0).Trace.write;
  check_int "rs2 value" 4 (e 1).Trace.value;
  check_int "rd value" 7 (e 2).Trace.value;
  check_bool "rd is write" true (e 2).Trace.write;
  check_int "rd addr" (Trace.reg_base + 7) (e 2).Trace.addr

(* ---- Program / image ids ---- *)

let test_image_id_sensitive () =
  let p1 = assemble [ li t0 1; halt 0 ] in
  let p2 = assemble [ li t0 2; halt 0 ] in
  check_bool "different programs, different ids" false
    (Zkflow_hash.Digest32.equal (Program.image_id p1) (Program.image_id p2))

let test_image_id_stable () =
  let p1 = assemble [ li t0 1; halt 0 ] in
  let p2 = assemble [ li t0 1; halt 0 ] in
  check_bool "same program, same id" true
    (Zkflow_hash.Digest32.equal (Program.image_id p1) (Program.image_id p2))

let test_assemble_rejects_bad_labels () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Asm.assemble: duplicate label \"x\"") (fun () ->
      ignore (assemble [ label "x"; label "x"; halt 0 ]));
  Alcotest.check_raises "undefined"
    (Invalid_argument "Asm.assemble: undefined label \"nowhere\"") (fun () ->
      ignore (assemble [ j "nowhere" ]))

let prop_alu_reference =
  (* Cross-check the machine's ALU against a direct OCaml model. *)
  QCheck.Test.make ~name:"alu matches reference" ~count:300
    QCheck.(triple (int_bound 12) (int_bound 0xfffffff) (int_bound 0xfffffff))
    (fun (opn, x, y) ->
      let ops =
        [| Isa.ADD; SUB; MUL; AND; OR; XOR; SLL; SRL; SRA; SLT; SLTU; DIVU; REMU |]
      in
      let op = ops.(opn) in
      let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v in
      let expected =
        match op with
        | ADD -> (x + y) land 0xffffffff
        | SUB -> (x - y) land 0xffffffff
        | MUL -> Int64.(to_int (logand (mul (of_int x) (of_int y)) 0xFFFFFFFFL))
        | AND -> x land y
        | OR -> x lor y
        | XOR -> x lxor y
        | SLL -> (x lsl (y land 31)) land 0xffffffff
        | SRL -> x lsr (y land 31)
        | SRA -> (signed x asr (y land 31)) land 0xffffffff
        | SLT -> if signed x < signed y then 1 else 0
        | SLTU -> if x < y then 1 else 0
        | DIVU -> if y = 0 then 0xffffffff else x / y
        | REMU -> if y = 0 then x else x mod y
      in
      let alu_item op =
        let f =
          match (op : Isa.alu) with
          | ADD -> add | SUB -> sub | MUL -> mul | AND -> and_ | OR -> or_
          | XOR -> xor | SLL -> sll | SRL -> srl | SRA -> sra
          | SLT -> slt | SLTU -> sltu | DIVU -> divu | REMU -> remu
        in
        f a0 t0 t1
      in
      let p = assemble [ li t0 x; li t1 y; alu_item op; commit a0; halt 0 ] in
      let r = Machine.run p ~input:[||] in
      r.Machine.journal.(0) = expected)

(* encode/decode: the round-trip property over the full instruction
   space, plus the regression the property would have caught — Alu rs1
   used to be packed into 5 bits of a shared byte, collapsing distinct
   instructions (and image IDs) whenever rs1 >= 8. *)

let gen_instr : Isa.t QCheck.Gen.t =
  let open QCheck.Gen in
  let reg = int_range 0 31 in
  let imm =
    frequency
      [
        (4, int_range (-0x8000_0000) 0xffff_ffff);
        (1, oneofl [ 0; 1; -1; 0xffff_ffff; -0x8000_0000 ]);
      ]
  in
  let alu =
    oneofl
      Isa.[ ADD; SUB; MUL; AND; OR; XOR; SLL; SRL; SRA; SLT; SLTU; DIVU; REMU ]
  in
  let br = oneofl Isa.[ BEQ; BNE; BLT; BGE; BLTU; BGEU ] in
  oneof
    [
      map (fun ((op, rd), (rs1, rs2)) -> Isa.Alu (op, rd, rs1, rs2))
        (pair (pair alu reg) (pair reg reg));
      map (fun ((op, rd), (rs1, imm)) -> Isa.Alui (op, rd, rs1, imm))
        (pair (pair alu reg) (pair reg imm));
      map (fun (rd, imm) -> Isa.Lui (rd, imm)) (pair reg imm);
      map (fun ((rd, rs1), imm) -> Isa.Lw (rd, rs1, imm)) (pair (pair reg reg) imm);
      map (fun ((rs2, rs1), imm) -> Isa.Sw (rs2, rs1, imm)) (pair (pair reg reg) imm);
      map (fun ((op, rs1), (rs2, tgt)) -> Isa.Branch (op, rs1, rs2, tgt))
        (pair (pair br reg) (pair reg imm));
      map (fun (rd, tgt) -> Isa.Jal (rd, tgt)) (pair reg imm);
      map (fun ((rd, rs1), imm) -> Isa.Jalr (rd, rs1, imm)) (pair (pair reg reg) imm);
      return Isa.Ecall;
    ]

let prop_encode_decode_roundtrip =
  QCheck.Test.make ~name:"decode inverts encode" ~count:2000
    (QCheck.make ~print:(Format.asprintf "%a" Isa.pp) gen_instr)
    (fun i ->
      match Isa.decode (Isa.encode i) with
      | Ok j -> j = i
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let test_alu_encoding_injective () =
  (* rs1 = 8 and rs2 = 8 swapped must produce different encodings *)
  let a = Isa.encode (Isa.Alu (ADD, 1, 8, 0)) in
  let b = Isa.encode (Isa.Alu (ADD, 1, 0, 8)) in
  Alcotest.(check bool) "rs1/rs2 distinguished" false (Bytes.equal a b);
  (* ... and so must image IDs of programs differing only there *)
  let p rs1 rs2 = Program.of_instrs [| Isa.Alu (ADD, 1, rs1, rs2); Isa.Ecall |] in
  Alcotest.(check bool) "image ids distinct" false
    (Zkflow_hash.Digest32.equal
       (Program.image_id (p 8 0))
       (Program.image_id (p 0 8)))

let test_decode_rejects_garbage () =
  let bad b = match Isa.decode b with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "short input" true (bad (Bytes.create 5));
  Alcotest.(check bool) "opcode 0" true (bad (Bytes.make 12 '\000'));
  Alcotest.(check bool) "unknown opcode" true (bad (Bytes.make 12 '\255'));
  (* a register field past 31 *)
  let b = Isa.encode (Isa.Lui (0, 0)) in
  Bytes.set b 1 (Char.chr 40);
  Alcotest.(check bool) "register out of range" true (bad b)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "zkflow_zkvm"
    [
      ( "alu",
        [
          Alcotest.test_case "add wraps" `Quick test_add_wraps;
          Alcotest.test_case "sub wraps" `Quick test_sub_wraps;
          Alcotest.test_case "mul truncates" `Quick test_mul_truncates;
          Alcotest.test_case "bitops" `Quick test_bitops;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "slt signed/unsigned" `Quick test_slt_signed_vs_unsigned;
          Alcotest.test_case "x0 hardwired" `Quick test_x0_hardwired;
          q prop_alu_reference;
        ] );
      ( "memory",
        [
          Alcotest.test_case "roundtrip" `Quick test_memory_roundtrip;
          Alcotest.test_case "zero initialised" `Quick test_memory_zero_initialised;
          Alcotest.test_case "offsets" `Quick test_memory_offsets;
        ] );
      ( "control",
        [
          Alcotest.test_case "branches" `Quick test_branch_taken_and_not;
          Alcotest.test_case "signed branches" `Quick test_signed_branches;
          Alcotest.test_case "loop" `Quick test_loop_sum;
          Alcotest.test_case "call/ret" `Quick test_call_ret;
        ] );
      ( "host",
        [
          Alcotest.test_case "read/commit" `Quick test_read_and_commit;
          Alcotest.test_case "input_avail" `Quick test_input_avail;
          Alcotest.test_case "exit code" `Quick test_exit_code;
          Alcotest.test_case "debug" `Quick test_debug_collects;
          Alcotest.test_case "journal bytes" `Quick test_journal_bytes;
        ] );
      ( "traps",
        [
          Alcotest.test_case "read past input" `Quick test_trap_read_past_input;
          Alcotest.test_case "pc out of range" `Quick test_trap_pc_out_of_range;
          Alcotest.test_case "bad RAM address" `Quick test_trap_bad_ram_address;
          Alcotest.test_case "unknown ecall" `Quick test_trap_unknown_ecall;
          Alcotest.test_case "cycle limit" `Quick test_trap_cycle_limit;
        ] );
      ( "sha",
        [
          Alcotest.test_case "0 words" `Quick (test_sha_matches_host 0);
          Alcotest.test_case "1 word" `Quick (test_sha_matches_host 1);
          Alcotest.test_case "11 words" `Quick (test_sha_matches_host 11);
          Alcotest.test_case "13 words" `Quick (test_sha_matches_host 13);
          Alcotest.test_case "14 words (boundary)" `Quick (test_sha_matches_host 14);
          Alcotest.test_case "16 words" `Quick (test_sha_matches_host 16);
          Alcotest.test_case "33 words" `Quick (test_sha_matches_host 33);
          Alcotest.test_case "cycle cost" `Quick test_sha_cycle_cost;
        ] );
      ( "guestlib",
        [
          Alcotest.test_case "merkle root n=1" `Quick (test_merkle_root_matches_host 1);
          Alcotest.test_case "merkle root n=2" `Quick (test_merkle_root_matches_host 2);
          Alcotest.test_case "merkle root n=3" `Quick (test_merkle_root_matches_host 3);
          Alcotest.test_case "merkle root n=7" `Quick (test_merkle_root_matches_host 7);
          Alcotest.test_case "merkle root n=8" `Quick (test_merkle_root_matches_host 8);
          Alcotest.test_case "merkle root n=13" `Quick (test_merkle_root_matches_host 13);
        ] );
      ( "trace",
        [
          Alcotest.test_case "rows = cycles" `Quick test_trace_row_count_equals_cycles;
          Alcotest.test_case "contiguous" `Quick test_trace_rows_are_contiguous;
          Alcotest.test_case "memlog partition" `Quick test_trace_memlog_partition;
          Alcotest.test_case "halt self-loop" `Quick test_trace_last_row_self_loop;
          Alcotest.test_case "row serialization" `Quick test_trace_row_serialization_roundtrip;
          Alcotest.test_case "mem serialization" `Quick test_trace_mem_serialization_roundtrip;
          q prop_encode_row_matches_reference;
          q prop_decode_rows_matches_sequential;
          q prop_encode_mem_matches_reference;
          Alcotest.test_case "negative field raises" `Quick test_encoders_refuse_negative_fields;
          Alcotest.test_case "trace off" `Quick test_trace_off_is_empty;
          Alcotest.test_case "register accesses" `Quick test_trace_register_reads_logged;
        ] );
      ( "program",
        [
          Alcotest.test_case "image id sensitive" `Quick test_image_id_sensitive;
          Alcotest.test_case "image id stable" `Quick test_image_id_stable;
          Alcotest.test_case "label validation" `Quick test_assemble_rejects_bad_labels;
          Alcotest.test_case "alu encoding injective" `Quick test_alu_encoding_injective;
          Alcotest.test_case "decode rejects garbage" `Quick test_decode_rejects_garbage;
          q prop_encode_decode_roundtrip;
        ] );
    ]
