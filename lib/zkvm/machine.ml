exception Trap of { cycle : int; pc : int; reason : string }

(* Guest-side cost counters. Cycles are added in bulk when a run ends
   (including on trap), so the fetch/execute loop stays branch-free;
   ecall and SHA-block counts attribute accelerator usage. *)
let m_cycles = Zkflow_obs.Metric.counter "zkvm.cycles"
let m_ecalls = Zkflow_obs.Metric.counter "zkvm.ecalls"
let m_sha_blocks = Zkflow_obs.Metric.counter "zkvm.sha_blocks"

type result = {
  exit_code : int;
  cycles : int;
  journal : int array;
  debug : int list;
  rows : Trace.rows;
  memlog : Trace.log;
}

let mask32 = 0xffffffff

type state = {
  regs : int array;
  mem : (int, int) Hashtbl.t;
  mutable pc : int;
  mutable cycle : int;
  input : int array;
  mutable input_pos : int;
  mutable journal_rev : int list;
  mutable debug_rev : int list;
  trace : bool;
  rows : Trace.rows;
  log : Trace.log;
  aux : int array; (* the aux words of the row being executed *)
}

let trap st reason = raise (Trap { cycle = st.cycle; pc = st.pc; reason })

let log_access st addr write value =
  if st.trace then Trace.log_access st.log ~addr ~time:st.cycle ~write ~value

let reg_read st r =
  let v = st.regs.(r) in
  log_access st (Trace.reg_base + r) false v;
  v

let reg_write st r v =
  let v = if r = 0 then 0 else v land mask32 in
  st.regs.(r) <- v;
  log_access st (Trace.reg_base + r) true v;
  v

let ram_check st addr =
  if addr < 0 || addr >= Trace.ram_limit then
    trap st (Printf.sprintf "RAM address out of range: %d" addr)

let ram_read st addr =
  ram_check st addr;
  let v = Option.value (Hashtbl.find_opt st.mem addr) ~default:0 in
  log_access st addr false v;
  v

let ram_write st addr v =
  ram_check st addr;
  let v = v land mask32 in
  Hashtbl.replace st.mem addr v;
  log_access st addr true v;
  v

(* An exec row whose aux words are [st.aux.(0 .. aux_len - 1)]. *)
let emit st ~next_pc ~rs1 ~rs2 ~rd ~aux_len =
  if st.trace then
    Trace.exec_row st.rows st.log ~pc:st.pc ~next_pc ~rs1 ~rs2 ~rd ~aux:st.aux ~aux_len;
  st.cycle <- st.cycle + 1

let exec_sha st ~src ~total ~dst =
  if total < 0 || total > 1 lsl 24 then trap st "sha: bad length";
  if src < 0 || src + total > Trace.ram_limit then trap st "sha: src out of range";
  if dst < 0 || dst + 8 > Trace.ram_limit then trap st "sha: dst out of range";
  let blocks = Trace.sha_block_count total in
  Zkflow_obs.Metric.add m_sha_blocks blocks;
  let state = ref (Array.copy Zkflow_hash.Sha256.iv) in
  for b = 0 to blocks - 1 do
    (* Message words of this block are genuine RAM reads; padding words
       are synthesised and checked arithmetically by the verifier. *)
    let block =
      Array.init 16 (fun j ->
          let w = (16 * b) + j in
          match Trace.sha_padded_word ~total w with
          | None -> ram_read st (src + w)
          | Some pad -> pad)
    in
    let pre = !state in
    let post = Zkflow_hash.Sha256.compress_words pre block in
    state := post;
    let last = b = blocks - 1 in
    if last then Array.iteri (fun i h -> ignore (ram_write st (dst + i) h)) post;
    if st.trace then
      Trace.sha_row st.rows st.log ~pc:st.pc
        ~next_pc:(if last then st.pc + 1 else st.pc)
        ~block_index:b ~total_words:total ~src ~dst ~block ~pre ~post;
    st.cycle <- st.cycle + 1
  done

type stop = Continue | Halted of int

let step st instr =
  match (instr : Isa.t) with
  | Alu (op, rd, rs1, rs2) ->
    let a = reg_read st rs1 in
    let b = reg_read st rs2 in
    let r = reg_write st rd (Isa.alu_eval op a b) in
    emit st ~next_pc:(st.pc + 1) ~rs1:a ~rs2:b ~rd:r ~aux_len:0;
    st.pc <- st.pc + 1;
    Continue
  | Alui (op, rd, rs1, imm) ->
    let a = reg_read st rs1 in
    let r = reg_write st rd (Isa.alu_eval op a (imm land mask32)) in
    emit st ~next_pc:(st.pc + 1) ~rs1:a ~rs2:0 ~rd:r ~aux_len:0;
    st.pc <- st.pc + 1;
    Continue
  | Lui (rd, imm) ->
    let r = reg_write st rd (imm land mask32) in
    emit st ~next_pc:(st.pc + 1) ~rs1:0 ~rs2:0 ~rd:r ~aux_len:0;
    st.pc <- st.pc + 1;
    Continue
  | Lw (rd, rs1, imm) ->
    let a = reg_read st rs1 in
    let addr = (a + imm) land mask32 in
    let v = ram_read st addr in
    let r = reg_write st rd v in
    st.aux.(0) <- addr;
    emit st ~next_pc:(st.pc + 1) ~rs1:a ~rs2:0 ~rd:r ~aux_len:1;
    st.pc <- st.pc + 1;
    Continue
  | Sw (rs2, rs1, imm) ->
    let a = reg_read st rs1 in
    let b = reg_read st rs2 in
    let addr = (a + imm) land mask32 in
    ignore (ram_write st addr b);
    st.aux.(0) <- addr;
    emit st ~next_pc:(st.pc + 1) ~rs1:a ~rs2:b ~rd:0 ~aux_len:1;
    st.pc <- st.pc + 1;
    Continue
  | Branch (op, rs1, rs2, tgt) ->
    let a = reg_read st rs1 in
    let b = reg_read st rs2 in
    let next = if Isa.branch_eval op a b then tgt else st.pc + 1 in
    emit st ~next_pc:next ~rs1:a ~rs2:b ~rd:0 ~aux_len:0;
    st.pc <- next;
    Continue
  | Jal (rd, tgt) ->
    let r = reg_write st rd (st.pc + 1) in
    emit st ~next_pc:tgt ~rs1:0 ~rs2:0 ~rd:r ~aux_len:0;
    st.pc <- tgt;
    Continue
  | Jalr (rd, rs1, imm) ->
    let a = reg_read st rs1 in
    let r = reg_write st rd (st.pc + 1) in
    let next = (a + imm) land mask32 in
    emit st ~next_pc:next ~rs1:a ~rs2:0 ~rd:r ~aux_len:0;
    st.pc <- next;
    Continue
  | Ecall ->
    Zkflow_obs.Metric.add m_ecalls 1;
    let n = reg_read st 10 in
    let a1 = reg_read st 11 in
    let a2 = reg_read st 12 in
    let a3 = reg_read st 13 in
    (* An ecall row's aux words are a2 and a3, then a block call's
       words. *)
    st.aux.(0) <- a2;
    st.aux.(1) <- a3;
    let finish ?(next = st.pc + 1) ?(aux_len = 2) rd =
      emit st ~next_pc:next ~rs1:n ~rs2:a1 ~rd ~aux_len;
      st.pc <- next
    in
    (* A block call moves RAM words a1 .. a1 + a2 - 1 through [f]. *)
    let block what f =
      if a2 < 1 || a2 > Ecall.max_block then
        trap st (Printf.sprintf "%s: count %d outside 1..%d" what a2 Ecall.max_block);
      if a1 + a2 > Trace.ram_limit then trap st (what ^ ": words outside RAM");
      for i = 0 to a2 - 1 do
        st.aux.(2 + i) <- f (a1 + i)
      done;
      finish ~aux_len:(2 + a2) 0
    in
    (match Ecall.of_number n with
     | Some Ecall.Halt ->
       (* halt: self-loop so the final row's next_pc is well-defined. *)
       finish ~next:st.pc 0;
       Halted a1
     | Some Ecall.Read_word ->
       if st.input_pos >= Array.length st.input then trap st "read past end of input";
       let w = st.input.(st.input_pos) in
       st.input_pos <- st.input_pos + 1;
       let r = reg_write st 10 w in
       finish r;
       Continue
     | Some Ecall.Commit ->
       st.journal_rev <- a1 :: st.journal_rev;
       finish 0;
       Continue
     | Some Ecall.Sha ->
       (* The ecall row stays on this pc; the block rows follow and the
          last one advances to pc + 1. *)
       emit st ~next_pc:st.pc ~rs1:n ~rs2:a1 ~rd:0 ~aux_len:2;
       exec_sha st ~src:a1 ~total:a2 ~dst:a3;
       st.pc <- st.pc + 1;
       Continue
     | Some Ecall.Debug ->
       st.debug_rev <- a1 :: st.debug_rev;
       finish 0;
       Continue
     | Some Ecall.Input_avail ->
       let r = reg_write st 10 (Array.length st.input - st.input_pos) in
       finish r;
       Continue
     | Some Ecall.Read_block ->
       block "read block" (fun addr ->
           if st.input_pos >= Array.length st.input then trap st "read past end of input";
           let w = ram_write st addr st.input.(st.input_pos) in
           st.input_pos <- st.input_pos + 1;
           w);
       Continue
     | Some Ecall.Commit_block ->
       block "commit block" (fun addr ->
           let w = ram_read st addr in
           st.journal_rev <- w :: st.journal_rev;
           w);
       Continue
     | None -> trap st (Printf.sprintf "unknown ecall %d" n))

let default_max_cycles = 50_000_000

let run ?(trace = false) ?(max_cycles = default_max_cycles) program ~input =
  let st =
    {
      regs = Array.make 32 0;
      mem = Hashtbl.create 4096;
      pc = 0;
      cycle = 0;
      input;
      input_pos = 0;
      journal_rev = [];
      debug_rev = [];
      trace;
      rows = Trace.recording ();
      log = Trace.log_recording ();
      aux = Array.make (2 + Ecall.max_block) 0;
    }
  in
  let rec loop () =
    if st.cycle > max_cycles then trap st "cycle limit exceeded";
    match Program.fetch program st.pc with
    | None -> trap st "pc out of program"
    | Some instr -> (
      match step st instr with
      | Continue -> loop ()
      | Halted code -> code)
  in
  let t_run = Zkflow_obs.Span.start () in
  let exit_code =
    match loop () with
    | code -> code
    | exception e ->
      (* Trapped runs still account their cycles. *)
      Zkflow_obs.Metric.add m_cycles st.cycle;
      if t_run <> 0 then Zkflow_obs.Span.finish "zkvm.run" ~args:[ ("cycles", st.cycle) ] t_run;
      raise e
  in
  Zkflow_obs.Metric.add m_cycles st.cycle;
  if t_run <> 0 then Zkflow_obs.Span.finish "zkvm.run" ~args:[ ("cycles", st.cycle) ] t_run;
  {
    exit_code;
    cycles = st.cycle;
    journal = Array.of_list (List.rev st.journal_rev);
    debug = List.rev st.debug_rev;
    rows = st.rows;
    memlog = st.log;
  }

let journal_bytes journal =
  let b = Bytes.create (4 * Array.length journal) in
  Array.iteri
    (fun i w -> Bytes.set_int32_be b (4 * i) (Int32.of_int (w land mask32)))
    journal;
  b
