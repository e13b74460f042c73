module D = Zkflow_hash.Digest32
module Record = Zkflow_netflow.Record
open Zkflow_zkvm
open Asm

(* ---- guest memory map (word addresses) ---- *)

let prev_root_addr = 0x100
let claimed_addr = 0x200
let computed_addr = 0x300
let params_addr = 0x500

(* Entry i lies at [entries_addr + Guestlib.entry_stride * i], after
   the words its leaf hash writes its domain tag to. *)
let entries_addr = 0x100000 + Array.length Guestlib.leaf_domain_words
let leaves_addr = 0x200000
let index_addr = 0x400000
let rlog_addr = 0x600000
let index_mask = (1 lsl 17) - 1
let max_entries = 1 lsl 16

let empty_root_words = Guestlib.empty_leaf_words

(* ---- small eDSL helpers (inline, call-free) ---- *)

(* Read 8 input words into memory at [addr], in one block read;
   clobbers a0-a2. *)
let read_digest_to addr = block [ li a1 addr; li a2 8; read_block ~dst:a1 ~count:a2 ]

(* [out] := the address of entry [index]. *)
let entry_addr ~out ~index =
  block [ muli out index Guestlib.entry_stride; addi out out entries_addr ]

(* Store constant digest words at [addr]; clobbers t0, t5. *)
let store_digest_at addr words =
  block [ li t5 addr; Guestlib.store_constant_words ~base:t5 ~off:0 ~tmp:t0 words ]

(* Multiplicative key hash of the 4 words at address [addr] (register),
   leaving the masked table index in [out]. Clobbers [tmp]. *)
let key_hash_code ~addr ~out ~tmp =
  block
    [
      lw out addr 0;
      li tmp 2654435761; mul out out tmp;
      lw tmp addr 1; xor out out tmp;
      li tmp 2246822519; mul out out tmp;
      lw tmp addr 2; xor out out tmp;
      li tmp 3266489917; mul out out tmp;
      lw tmp addr 3; xor out out tmp;
      li tmp 2654435761; mul out out tmp;
      srli tmp out 16; xor out out tmp;
      andi out out index_mask;
    ]

(* Compare the 4 words at [a] and [b]; fall through when equal, branch
   to [on_diff] otherwise. Clobbers t0, t1. *)
let key_compare_code ~a ~b ~on_diff =
  block
    (List.concat
       (List.init 4 (fun k ->
            [ lw t0 a k; lw t1 b k; bne t0 t1 on_diff ])))

(* ---- aggregation guest ----

   Register roles in the main body:
     s0 = live entry count m            (updated by agg_merge_record)
     s1 = routers remaining
     s9, s10 = main loop temporaries (preserved across gl_ calls)

   Local subroutines follow the gl_ convention (clobber a*, t*, s2–s8)
   and are only called from the top level. *)

let aggregation_items =
  [
    (* m_prev *)
    read_word s0;
    read_digest_to prev_root_addr;
    (* previous entries *)
    li a0 entries_addr;
    mv a1 s0;
    call "gl_read_entries";
    (* index every previous entry; duplicate keys are impossible in an
       honestly-produced CLog, so finding one means forged input *)
    li s9 0;
    label "agg.index_loop";
    bgeu s9 s0 "agg.index_done";
    mv a0 s9;
    call "agg_insert_index";
    addi s9 s9 1;
    j "agg.index_loop";
    label "agg.index_done";
    (* Step 1+3a of Algorithm 1: recompute the previous Merkle root and
       compare with the claimed one *)
    beq s0 zero "agg.prev_empty";
    li a0 entries_addr;
    mv a1 s0;
    li a2 leaves_addr;
    call "gl_leaf_hashes";
    li a0 leaves_addr;
    mv a1 s0;
    call "gl_merkle_root";
    li a0 leaves_addr;
    li a1 prev_root_addr;
    call "gl_cmp8";
    beq a0 zero "agg.fail_prev";
    j "agg.prev_ok";
    label "agg.prev_empty";
    store_digest_at computed_addr empty_root_words;
    li a0 computed_addr;
    li a1 prev_root_addr;
    call "gl_cmp8";
    beq a0 zero "agg.fail_prev";
    label "agg.prev_ok";
    li a0 prev_root_addr;
    li a1 8;
    call "gl_commit_words";
    (* routers *)
    read_word s1;
    commit s1;
    label "agg.router_loop";
    beq s1 zero "agg.routers_done";
    read_digest_to claimed_addr;
    read_word s10;                      (* c_r *)
    li a0 rlog_addr;
    slli a1 s10 3;
    call "gl_read_words";
    (* Step 2: recompute the router's commitment over the raw bytes *)
    li t1 rlog_addr;
    slli t2 s10 3;
    li t3 computed_addr;
    sha ~src:t1 ~words:t2 ~dst:t3;
    li a0 computed_addr;
    li a1 claimed_addr;
    call "gl_cmp8";
    beq a0 zero "agg.fail_router";
    li a0 claimed_addr;
    li a1 8;
    call "gl_commit_words";
    (* Step 3: merge every record *)
    li s9 0;
    label "agg.merge_loop";
    bgeu s9 s10 "agg.merge_done";
    slli a0 s9 3;
    li a1 rlog_addr;
    add a0 a0 a1;
    call "agg_merge_record";
    addi s9 s9 1;
    j "agg.merge_loop";
    label "agg.merge_done";
    addi s1 s1 (-1);
    j "agg.router_loop";
    label "agg.routers_done";
    commit s0;
    (* leaf digests become public; raw entries do not *)
    beq s0 zero "agg.empty_root";
    li a0 entries_addr;
    mv a1 s0;
    li a2 leaves_addr;
    call "gl_leaf_hashes";
    li a0 leaves_addr;
    slli a1 s0 3;
    call "gl_commit_words";
    li a0 leaves_addr;
    mv a1 s0;
    call "gl_merkle_root";
    li a0 leaves_addr;
    li a1 8;
    call "gl_commit_words";
    halt 0;
    label "agg.empty_root";
    store_digest_at computed_addr empty_root_words;
    li a0 computed_addr;
    li a1 8;
    call "gl_commit_words";
    halt 0;
    label "agg.fail_prev";
    halt 1;
    label "agg.fail_router";
    halt 2;
    (* --- agg_insert_index: a0 = entry index; inserts into the open-
       addressing table; halts 4 on duplicate key. --- *)
    label "agg_insert_index";
    mv s2 a0;                           (* entry index *)
    entry_addr ~out:s3 ~index:s2; (* key address *)
    key_hash_code ~addr:s3 ~out:s4 ~tmp:t0;
    label "agg_insert_index.probe";
    li t0 index_addr;
    add t0 t0 s4;
    lw s5 t0 0;                         (* slot *)
    beq s5 zero "agg_insert_index.store";
    (* occupied: duplicate keys are forged input *)
    addi s6 s5 (-1);
    entry_addr ~out:s6 ~index:s6; (* other key address *)
    key_compare_code ~a:s3 ~b:s6 ~on_diff:"agg_insert_index.next";
    halt 4;
    label "agg_insert_index.next";
    addi s4 s4 1;
    andi s4 s4 index_mask;
    j "agg_insert_index.probe";
    label "agg_insert_index.store";
    li t0 index_addr;
    add t0 t0 s4;
    addi t1 s2 1;
    sw t1 t0 0;
    ret;
    (* --- agg_merge_record: a0 = record address; accumulates into the
       matching entry or appends a new one (Algorithm 1 lines 13–22).
       Updates s0 (the entry count). --- *)
    label "agg_merge_record";
    mv s2 a0;                           (* record address *)
    key_hash_code ~addr:s2 ~out:s4 ~tmp:t0;
    label "agg_merge_record.probe";
    li t0 index_addr;
    add t0 t0 s4;
    lw s5 t0 0;
    beq s5 zero "agg_merge_record.append";
    addi s6 s5 (-1);
    entry_addr ~out:s6 ~index:s6; (* candidate entry address *)
    key_compare_code ~a:s2 ~b:s6 ~on_diff:"agg_merge_record.next";
    (* found: sum the 4 metric words (wraps mod 2^32 like the host) *)
    block
      (List.concat
         (List.init 4 (fun k ->
              [ lw t0 s6 (4 + k); lw t1 s2 (4 + k); add t0 t0 t1; sw t0 s6 (4 + k) ])));
    ret;
    label "agg_merge_record.next";
    addi s4 s4 1;
    andi s4 s4 index_mask;
    j "agg_merge_record.probe";
    label "agg_merge_record.append";
    li t0 max_entries;
    bltu s0 t0 "agg_merge_record.space";
    halt 3;
    label "agg_merge_record.space";
    (* INDEX[slot] = m + 1 *)
    li t0 index_addr;
    add t0 t0 s4;
    addi t1 s0 1;
    sw t1 t0 0;
    (* ENTRIES[m] = record *)
    entry_addr ~out:s7 ~index:s0;
    block
      (List.concat
         (List.init 8 (fun k -> [ lw t0 s2 k; sw t0 s7 k ])));
    addi s0 s0 1;
    ret;
    Guestlib.all_fns;
  ]

let aggregation_program = lazy (assemble aggregation_items)

(* ---- query guest ----

   Register roles: s0 = m; s9 = index; s10 = accumulator;
   s11 = match count. *)

let op_sum = 0
let op_count = 1
let op_max = 2
let op_min = 3

let query_items =
  [
    read_word s0;
    read_digest_to claimed_addr;
    li a0 entries_addr;
    mv a1 s0;
    call "gl_read_entries";
    li a0 params_addr;
    li a1 10;
    call "gl_read_words";
    (* validate op and metric *)
    li t5 params_addr;
    lw t0 t5 8;
    li t1 3;
    bgeu t1 t0 "q.op_ok";
    halt 5;
    label "q.op_ok";
    lw t0 t5 9;
    li t1 3;
    bgeu t1 t0 "q.metric_ok";
    halt 5;
    label "q.metric_ok";
    (* authenticate the CLog against the claimed root *)
    beq s0 zero "q.empty";
    li a0 entries_addr;
    mv a1 s0;
    li a2 leaves_addr;
    call "gl_leaf_hashes";
    li a0 leaves_addr;
    mv a1 s0;
    call "gl_merkle_root";
    li a0 leaves_addr;
    li a1 claimed_addr;
    call "gl_cmp8";
    beq a0 zero "q.fail";
    j "q.verified";
    label "q.empty";
    store_digest_at computed_addr empty_root_words;
    li a0 computed_addr;
    li a1 claimed_addr;
    call "gl_cmp8";
    beq a0 zero "q.fail";
    label "q.verified";
    li a0 claimed_addr;
    li a1 8;
    call "gl_commit_words";
    li a0 params_addr;
    li a1 10;
    call "gl_commit_words";
    (* accumulator init: MIN starts at 0xffffffff, others at 0 *)
    li t5 params_addr;
    lw t0 t5 8;
    li s10 0;
    li t1 op_min;
    bne t0 t1 "q.acc_ready";
    li s10 0xffffffff;
    label "q.acc_ready";
    li s11 0;
    li s9 0;
    label "q.scan";
    bgeu s9 s0 "q.done";
    entry_addr ~out:t0 ~index:s9; (* entry base, t0 *)
    li t1 params_addr;
    (* word-level predicate: care flag then equality *)
    block
      (List.concat
         (List.init 4 (fun w ->
              let skip = Printf.sprintf "q.care%d" w in
              [
                lw t2 t1 w;
                beq t2 zero skip;
                lw t3 t0 w;
                lw t4 t1 (4 + w);
                bne t3 t4 "q.next";
                label skip;
              ])));
    (* matched: load the selected metric *)
    lw t2 t1 9;
    addi t2 t2 4;
    add t3 t0 t2;
    lw t4 t3 0;                         (* metric value *)
    lw t6 t1 8;                         (* op *)
    li t2 op_sum;
    bne t6 t2 "q.not_sum";
    add s10 s10 t4;
    j "q.matched";
    label "q.not_sum";
    li t2 op_count;
    bne t6 t2 "q.not_count";
    addi s10 s10 1;
    j "q.matched";
    label "q.not_count";
    li t2 op_max;
    bne t6 t2 "q.is_min";
    bgeu s10 t4 "q.matched";
    mv s10 t4;
    j "q.matched";
    label "q.is_min";
    bgeu t4 s10 "q.matched";
    mv s10 t4;
    label "q.matched";
    addi s11 s11 1;
    label "q.next";
    addi s9 s9 1;
    j "q.scan";
    label "q.done";
    commit s10;
    commit s11;
    halt 0;
    label "q.fail";
    halt 1;
    Guestlib.all_fns;
  ]

let query_program = lazy (assemble query_items)
let aggregation_image_id () = Program.image_id (Lazy.force aggregation_program)
let query_image_id () = Program.image_id (Lazy.force query_program)

(* ---- host-side input marshalling ---- *)

let aggregation_input ~prev ~batches =
  let parts =
    [ [| Clog.length prev |]; Guestlib.words_of_digest (D.to_bytes (Clog.root prev)) ]
    @ [ Clog.words prev ]
    @ [ [| List.length batches |] ]
    @ List.concat_map
        (fun (digest, records) ->
          [
            Guestlib.words_of_digest (D.to_bytes digest);
            [| Array.length records |];
            Zkflow_netflow.Export.batch_words records;
          ])
        batches
  in
  Array.concat parts

type agg_journal = {
  prev_root : D.t;
  router_digests : D.t list;
  entry_count : int;
  leaf_digests : D.t array;
  new_root : D.t;
}

exception Parse of string

let take_digest journal pos =
  if pos + 8 > Array.length journal then raise (Parse "journal: truncated digest");
  (D.of_bytes (Guestlib.digest_of_words (Array.sub journal pos 8)), pos + 8)

let take_word journal pos =
  if pos >= Array.length journal then raise (Parse "journal: truncated word");
  (journal.(pos), pos + 1)

let parse_aggregation_journal journal =
  match
    let prev_root, pos = take_digest journal 0 in
    let n_routers, pos = take_word journal pos in
    if n_routers > 4096 then raise (Parse "journal: implausible router count");
    let router_digests, pos =
      let rec go acc pos k =
        if k = 0 then (List.rev acc, pos)
        else
          let d, pos = take_digest journal pos in
          go (d :: acc) pos (k - 1)
      in
      go [] pos n_routers
    in
    let entry_count, pos = take_word journal pos in
    if entry_count > max_entries then raise (Parse "journal: entry count too large");
    let leaf_digests, pos =
      let arr = Array.make entry_count D.zero in
      let pos = ref pos in
      for i = 0 to entry_count - 1 do
        let d, p = take_digest journal !pos in
        arr.(i) <- d;
        pos := p
      done;
      (arr, !pos)
    in
    let new_root, pos = take_digest journal pos in
    if pos <> Array.length journal then raise (Parse "journal: trailing words");
    { prev_root; router_digests; entry_count; leaf_digests; new_root }
  with
  | j -> Ok j
  | exception Parse msg -> Error msg

(* ---- query parameters ---- *)

type op = Sum | Count | Max | Min
type metric = Packets | Bytes | Hops | Losses

type predicate = {
  src_ip : Zkflow_netflow.Ipaddr.t option;
  dst_ip : Zkflow_netflow.Ipaddr.t option;
  ports : int option;
  proto : int option;
}

type query_params = { predicate : predicate; op : op; metric : metric }

let match_any = { src_ip = None; dst_ip = None; ports = None; proto = None }

let op_code = function Sum -> 0 | Count -> 1 | Max -> 2 | Min -> 3

let op_of_code = function
  | 0 -> Ok Sum
  | 1 -> Ok Count
  | 2 -> Ok Max
  | 3 -> Ok Min
  | n -> Error (Printf.sprintf "journal: unknown op %d" n)

let metric_code = function Packets -> 0 | Bytes -> 1 | Hops -> 2 | Losses -> 3

let metric_of_code = function
  | 0 -> Ok Packets
  | 1 -> Ok Bytes
  | 2 -> Ok Hops
  | 3 -> Ok Losses
  | n -> Error (Printf.sprintf "journal: unknown metric %d" n)

(* The one text codec for ops and metrics, shared by the CLI flags,
   the daemon's HTTP parameters and its memo keys. *)
let op_names = [ (Sum, "sum"); (Count, "count"); (Max, "max"); (Min, "min") ]

let metric_names =
  [ (Packets, "packets"); (Bytes, "bytes"); (Hops, "hops"); (Losses, "losses") ]

let op_name op = List.assoc op op_names
let metric_name metric = List.assoc metric metric_names

let of_name what names s =
  match List.find_opt (fun (_, n) -> n = s) names with
  | Some (v, _) -> Ok v
  | None -> Error (Printf.sprintf "unknown %s %S" what s)

let op_of_name = of_name "op" op_names
let metric_of_name = of_name "metric" metric_names

let params_words p =
  let field = function None -> (0, 0) | Some v -> (1, v) in
  let c0, v0 = field p.predicate.src_ip in
  let c1, v1 = field p.predicate.dst_ip in
  let c2, v2 = field p.predicate.ports in
  let c3, v3 = field p.predicate.proto in
  [| c0; c1; c2; c3; v0; v1; v2; v3; op_code p.op; metric_code p.metric |]

let params_of_words w =
  if Array.length w <> 10 then Error "journal: params need 10 words"
  else begin
    let field c v =
      match c with
      | 0 -> Ok None
      | 1 -> Ok (Some v)
      | _ -> Error "journal: bad care flag"
    in
    let ( let* ) = Result.bind in
    let* src_ip = field w.(0) w.(4) in
    let* dst_ip = field w.(1) w.(5) in
    let* ports = field w.(2) w.(6) in
    let* proto = field w.(3) w.(7) in
    let* op = op_of_code w.(8) in
    let* metric = metric_of_code w.(9) in
    Ok { predicate = { src_ip; dst_ip; ports; proto }; op; metric }
  end

let query_input ~clog params =
  Array.concat
    [
      [| Clog.length clog |];
      Guestlib.words_of_digest (D.to_bytes (Clog.root clog));
      Clog.words clog;
      params_words params;
    ]

type query_journal = {
  root : D.t;
  params : query_params;
  result : int;
  matches : int;
}

let parse_query_journal journal =
  if Array.length journal <> 20 then Error "journal: query journal needs 20 words"
  else begin
    let root = D.of_bytes (Guestlib.digest_of_words (Array.sub journal 0 8)) in
    match params_of_words (Array.sub journal 8 10) with
    | Error e -> Error e
    | Ok params ->
      Ok { root; params; result = journal.(18); matches = journal.(19) }
  end

let params_equal a b = a = b
