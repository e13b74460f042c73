module Isa = Zkflow_zkvm.Isa
module Trace = Zkflow_zkvm.Trace
module Ecall = Zkflow_zkvm.Ecall

let mask32 = 0xffffffff
let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* ---- abstract register state ----

   Per register: a may-be-uninitialized flag (forward may-analysis,
   seeded from the ABI entry state: only x0 is defined on entry) and an
   {!Interval} value (interval + power-of-two congruence) used for
   address arithmetic, ecall-number resolution and loop trip counts.
   Singleton intervals reproduce the old constant lattice bit-for-bit
   ({!Interval.alu} delegates to the concrete semantics on singletons),
   so everything the flat analyzer proved is still proven. *)

type value = { may_uninit : bool; v : Interval.t }
type state = value array

let v_init_top = { may_uninit = false; v = Interval.top }
let v_uninit = { may_uninit = true; v = Interval.top }
let v_itv v = { may_uninit = false; v }
let v_cst c = v_itv (Interval.const c)

let join_value a b =
  { may_uninit = a.may_uninit || b.may_uninit; v = Interval.join a.v b.v }

let join_state a b = Array.init 32 (fun i -> join_value a.(i) b.(i))

let widen_state (old : state) (nw : state) =
  Array.init 32 (fun i ->
      { may_uninit = nw.(i).may_uninit; v = Interval.widen old.(i).v nw.(i).v })

let equal_state (a : state) b = Array.for_all2 (fun x y -> x = y) a b

let entry_state () =
  let st = Array.make 32 v_uninit in
  st.(0) <- v_cst 0;
  st

(* Helper functions are entered with every register defined but
   unknown: callers are checked to pass initialised arguments at the
   call site, and assuming less would re-flag every callee body. *)
let helper_entry_state () =
  let st = Array.make 32 v_init_top in
  st.(0) <- v_cst 0;
  st

let reg_itv (st : state) r = st.(r).v

(* [emit] is a no-op during the fixpoint and collects findings in the
   final reporting walk, so each defect is reported exactly once;
   [note] likewise collects unproven-safety facts: [`Mem] = a memory
   access that may leave RAM, [`Ecall] = an unresolved call number,
   [`Jalr] = an indirect jump (the control model assumes, not proves,
   that return addresses are intact). *)
let step ~emit ~note ~pc instr (st : state) =
  let st = Array.copy st in
  let read ?(what = "") r =
    if r <> 0 && st.(r).may_uninit then
      emit
        (Finding.error ~loc:(Finding.Pc pc) ~pass:"uninit"
           "read of possibly-uninitialized register %s%s" (Isa.reg_name r) what)
  in
  let write r v = if r <> 0 then st.(r) <- v in
  let itv r = st.(r).v in
  let addr_of base imm = Interval.alu Isa.ADD (itv base) (Interval.const imm) in
  let oob ~op (a : Interval.t) =
    match Interval.is_const a with
    | Some addr ->
      emit
        (Finding.error ~loc:(Finding.Pc pc) ~pass:"membounds"
           "%s to word address 0x%x is outside guest RAM (limit 0x%x)" op addr
           Trace.ram_limit)
    | None ->
      emit
        (Finding.error ~loc:(Finding.Pc pc) ~pass:"membounds"
           "%s to word address in [0x%x, 0x%x] is always outside guest RAM (limit 0x%x)"
           op a.Interval.lo a.Interval.hi Trace.ram_limit)
  in
  let check_mem ~op base imm =
    let a = addr_of base imm in
    if a.Interval.lo >= Trace.ram_limit then oob ~op a
    else if a.Interval.hi >= Trace.ram_limit then note `Mem
  in
  (match instr with
   | Isa.Alu (op, rd, rs1, rs2) ->
     read rs1;
     read rs2;
     write rd (v_itv (Interval.alu op (itv rs1) (itv rs2)))
   | Isa.Alui (op, rd, rs1, imm) ->
     read rs1;
     write rd (v_itv (Interval.alu op (itv rs1) (Interval.const imm)))
   | Isa.Lui (rd, imm) -> write rd (v_cst imm)
   | Isa.Lw (rd, rs1, imm) ->
     read ~what:" (load base)" rs1;
     check_mem ~op:"load" rs1 imm;
     (* guest RAM is zero-initialised, so a loaded word is defined *)
     write rd v_init_top
   | Isa.Sw (rs2, rs1, imm) ->
     read ~what:" (store base)" rs1;
     read ~what:" (store value)" rs2;
     check_mem ~op:"store" rs1 imm
   | Isa.Branch (_, rs1, rs2, _) ->
     read rs1;
     read rs2
   | Isa.Jal (0, _) -> ()
   | Isa.Jal (_, _) ->
     (* a call: the callee may leave anything in any register, but
        everything is defined on return (conservative summary) *)
     for r = 1 to 31 do
       st.(r) <- v_init_top
     done
   | Isa.Jalr (rd, rs1, _) ->
     read ~what:(if rd = 0 then " (return address)" else " (indirect call target)") rs1;
     note `Jalr;
     if rd <> 0 then
       for r = 1 to 31 do
         st.(r) <- v_init_top
       done
   | Isa.Ecall ->
     read ~what:" (ecall number a0)" 10;
     (match Interval.is_const (itv 10) with
      | Some n -> (
        match Ecall.of_number n with
        | None ->
          emit
            (Finding.error ~loc:(Finding.Pc pc) ~pass:"ecall"
               "unknown ecall number %d (the machine traps here)" n)
        | Some Ecall.Halt -> read ~what:" (halt exit code)" 11
        | Some (Ecall.Read_word | Ecall.Input_avail) -> write 10 v_init_top
        | Some (Ecall.Commit | Ecall.Debug) -> read ~what:" (ecall argument)" 11
        | Some Ecall.Sha ->
          read ~what:" (sha src)" 11;
          read ~what:" (sha length)" 12;
          read ~what:" (sha dst)" 13;
          let src = itv 11 and len = itv 12 and dst = itv 13 in
          let cap = 1 lsl 24 in
          if len.Interval.lo > cap then
            emit
              (Finding.error ~loc:(Finding.Pc pc) ~pass:"membounds"
                 "sha length is at least %d words, above the 2^24-word cap (the machine traps)"
                 len.Interval.lo)
          else if len.Interval.hi > cap then note `Mem;
          if src.Interval.lo + min len.Interval.lo cap > Trace.ram_limit then
            oob ~op:"sha source" src
          else if src.Interval.hi + min len.Interval.hi cap > Trace.ram_limit then
            note `Mem;
          if dst.Interval.lo + 8 > Trace.ram_limit then oob ~op:"sha destination" dst
          else if dst.Interval.hi + 8 > Trace.ram_limit then note `Mem
        | Some ((Ecall.Read_block | Ecall.Commit_block) as c) ->
          let op, what =
            if Ecall.writes_journal c then ("block commit", "source")
            else ("block read", "destination")
          in
          read ~what:(Printf.sprintf " (%s %s)" op what) 11;
          read ~what:(Printf.sprintf " (%s count)" op) 12;
          let base = itv 11 and count = itv 12 in
          let max = Ecall.max_block in
          if count.Interval.hi < 1 || count.Interval.lo > max then
            emit
              (Finding.error ~loc:(Finding.Pc pc) ~pass:"membounds"
                 "%s count in [%d, %d] is always outside 1..%d (the machine traps)" op
                 count.Interval.lo count.Interval.hi max)
          else if count.Interval.lo < 1 || count.Interval.hi > max then note `Mem;
          (* The words run from the base to base + count - 1. *)
          if base.Interval.lo + Int.max 1 count.Interval.lo > Trace.ram_limit then
            oob ~op:(op ^ " " ^ what) base
          else if base.Interval.hi + Int.min max count.Interval.hi > Trace.ram_limit then
            note `Mem)
      | None ->
        let n = itv 10 in
        if n.Interval.lo > Ecall.max_number then
          emit
            (Finding.error ~loc:(Finding.Pc pc) ~pass:"ecall"
               "ecall number in a0 is at least %d — always invalid (the machine traps here)"
               n.Interval.lo)
        else begin
          emit
            (Finding.warning ~loc:(Finding.Pc pc) ~pass:"ecall"
               "ecall number in a0 is not statically known; protocol not checked");
          note `Ecall
        end;
        write 10 v_init_top));
  st

let transfer ~emit ~pc instr st = step ~emit ~note:(fun _ -> ()) ~pc instr st

(* Branch-edge refinement for the solver: intersect both operands with
   the taken / fall-through condition; an empty intersection marks the
   edge infeasible. *)
let refine ~pc:_ instr ~taken (st : state) =
  match instr with
  | Isa.Branch (op, rs1, rs2, _) -> (
    match Interval.refine_branch op ~taken st.(rs1).v st.(rs2).v with
    | None -> None
    | Some (a, b) ->
      let st = Array.copy st in
      if rs1 <> 0 then st.(rs1) <- { st.(rs1) with v = a };
      if rs2 <> 0 && rs2 <> rs1 then st.(rs2) <- { st.(rs2) with v = b };
      Some st)
  | _ -> Some st

let solve cfg =
  Dataflow.solve cfg ~refine ~widen:widen_state
    ~entry:(fun pc -> if pc = 0 then entry_state () else helper_entry_state ())
    ~join:join_state ~equal:equal_state
    ~transfer:(transfer ~emit:(fun _ -> ()))

(* ---- well-formedness: register fields must name real registers ----

   A malformed index would make the interpreter (and this analysis)
   fault on array access, so this runs first and short-circuits. *)
let wellformed instrs =
  let findings = ref [] in
  Array.iteri
    (fun pc instr ->
      let r1, r2, rd = Isa.registers_used instr in
      List.iter
        (function
          | Some r when r < 0 || r > 31 ->
            findings :=
              Finding.error ~loc:(Finding.Pc pc) ~pass:"wellformed"
                "register index %d out of range 0..31" r
              :: !findings
          | _ -> ())
        [ r1; r2; rd ])
    instrs;
  List.rev !findings

(* ---- graph passes ---- *)

let escape_findings (cfg : Cfg.t) =
  let n = Array.length cfg.Cfg.program in
  List.filter_map
    (fun (pc, tgt) ->
      if not (Cfg.reachable_pc cfg pc) then None
      else if tgt = pc + 1 then
        (* a fall-through (or call-return) edge past the end *)
        Some
          (Finding.error ~loc:(Finding.Pc pc) ~pass:"control"
             "execution can fall off the end of the program (no terminating ecall on this path)")
      else
        Some
          (Finding.error ~loc:(Finding.Pc pc) ~pass:"control"
             "control transfer to pc %d, outside the program [0, %d)" tgt n))
    cfg.Cfg.escapes

let unreachable_findings (cfg : Cfg.t) =
  (* Collapse runs of adjacent unreachable blocks into one finding so a
     dead helper function reports once, not once per block. *)
  let blocks = cfg.Cfg.blocks in
  let findings = ref [] in
  let i = ref 0 in
  let nb = Array.length blocks in
  while !i < nb do
    if cfg.Cfg.reachable.(!i) then incr i
    else begin
      let first = blocks.(!i).Cfg.first in
      let j = ref !i in
      while !j + 1 < nb && not cfg.Cfg.reachable.(!j + 1) do
        incr j
      done;
      let last = blocks.(!j).Cfg.last in
      findings :=
        Finding.warning ~loc:(Finding.Pc first) ~pass:"unreachable"
          "unreachable code: pc %d..%d (%d instruction(s)) can never execute" first
          last (last - first + 1)
        :: !findings;
      i := !j + 1
    end
  done;
  List.rev !findings

(* ---- proven cycle bounds ----

   Per function: an acyclic body is bounded by its longest
   entry-to-exit path. A body with loops is bounded by
   Σ_b weight(b) · Π_{loops L ∋ b} (trip(L) + 1) when every loop is a
   single-entry (reducible) natural loop whose trip count the interval
   state proves: the loop must advance exactly one induction register
   by a constant step, compare it against a loop-invariant limit with a
   known interval, and the arithmetic must provably not wrap. Calls add
   the callee's bound; SHA ecalls add their worst-case compression
   rows. Any loop this cannot bound — every data-dependent loop over
   router exports — makes the enclosing call chain [Unbounded], which
   is the honest answer. Unlike the PR-2 budget this is a sound upper
   bound: the differential fuzzer asserts bound ≥ observed cycles. *)

let sat_cap = 1 lsl 60
let sat_add a b = if a >= sat_cap - b then sat_cap else a + b
let sat_mul a b = if a = 0 || b = 0 then 0 else if a > sat_cap / b then sat_cap else a * b
let trip_cap = 1 lsl 31

exception Unbounded_exn of int list (* offending loop-header / entry pcs *)

(* Registers an instruction may write (clobber model must match
   [step]). *)
let writes_of instr =
  match (instr : Isa.t) with
  | Alu (_, rd, _, _) | Alui (_, rd, _, _) | Lui (rd, _) | Lw (rd, _, _) -> [ rd ]
  | Sw _ | Branch _ | Jal (0, _) | Jalr (0, _, _) -> []
  | Jal (_, _) | Jalr (_, _, _) -> List.init 31 (fun i -> i + 1)
  | Ecall -> [ 10 ]

type canon_rel = Lt | Le | Gt | Ge | Ne

(* Trip-count inference for one loop. [iv]/[lv] are the induction
   register's and limit's intervals at the loop's preheader; [s] the
   signed step. Returns a bound on back-edge traversals per entry. *)
let trips ~signed_cmp rel iv lv s =
  let open Interval in
  if signed_cmp && not (iv.hi < 0x80000000 && lv.hi < 0x80000000) then None
  else
    let t =
      if s > 0 then
        match rel with
        | Lt when lv.hi - 1 + s <= mask32 ->
          Some (if lv.hi <= iv.lo then 0 else (lv.hi - iv.lo + s - 1) / s)
        | Le when lv.hi + s <= mask32 ->
          Some (if lv.hi < iv.lo then 0 else ((lv.hi - iv.lo) / s) + 1)
        | Ne -> (
          match is_const lv with
          | Some k
            when iv.hi <= k
                 && (iv.modulus = 0 || iv.modulus mod s = 0)
                 && (k - iv.residue) mod s = 0 ->
            Some ((k - iv.lo) / s)
          | _ -> None)
        | _ -> None
      else
        let d = -s in
        match rel with
        | Gt when signed_cmp || lv.lo + 1 >= d ->
          Some (if iv.hi <= lv.lo then 0 else (iv.hi - lv.lo + d - 1) / d)
        | Ge when signed_cmp || lv.lo >= d ->
          Some (if iv.hi < lv.lo then 0 else ((iv.hi - lv.lo) / d) + 1)
        | Ne -> (
          match is_const lv with
          | Some k
            when iv.lo >= k
                 && (iv.modulus = 0 || iv.modulus mod d = 0)
                 && (iv.residue - k) mod d = 0 ->
            Some ((iv.hi - k) / d)
          | _ -> None)
        | _ -> None
    in
    match t with Some t when t <= trip_cap -> Some t | _ -> None

let cycle_bound (cfg : Cfg.t) (block_in : state option array) =
  let n = Array.length cfg.Cfg.program in
  let nb = Array.length cfg.Cfg.blocks in
  let recursive = Cfg.recursive_entries cfg in
  let func_memo : (int, Finding.cycle_bound) Hashtbl.t = Hashtbl.create 8 in
  (* out-state of a block (re-walk from its in-state) *)
  let out_state id =
    match block_in.(id) with
    | None -> None
    | Some st ->
      let b = cfg.Cfg.blocks.(id) in
      let st = ref st in
      for pc = b.Cfg.first to b.Cfg.last do
        st := transfer ~emit:(fun _ -> ()) ~pc cfg.Cfg.program.(pc) !st
      done;
      Some !st
  in
  let rec func_bound entry =
    match Hashtbl.find_opt func_memo entry with
    | Some b -> b
    | None ->
      (* seed the memo so recursion cannot loop even if the recursion
         check missed something exotic *)
      Hashtbl.replace func_memo entry (Finding.Unbounded [ entry ]);
      let b =
        try Finding.Bounded (func_bound_exn entry)
        with Unbounded_exn hs -> Finding.Unbounded hs
      in
      Hashtbl.replace func_memo entry b;
      b
  and func_bound_exn entry =
    if List.mem entry recursive then raise (Unbounded_exn [ entry ]);
    let entry_id = cfg.Cfg.block_of_pc.(entry) in
    (* function membership + back edges via one DFS *)
    let member = Array.make nb false in
    let color = Array.make nb 0 in
    let back = ref [] in
    let rec dfs id =
      member.(id) <- true;
      color.(id) <- 1;
      List.iter
        (fun s ->
          if color.(s) = 1 then back := (id, s) :: !back
          else if color.(s) = 0 then dfs s)
        cfg.Cfg.blocks.(id).Cfg.succs;
      color.(id) <- 2
    in
    dfs entry_id;
    let preds = Array.make nb [] in
    Array.iteri
      (fun id b ->
        if member.(id) then
          List.iter (fun s -> if member.(s) then preds.(s) <- id :: preds.(s)) b.Cfg.succs)
      cfg.Cfg.blocks;
    let block_weight id =
      match block_in.(id) with
      | None -> 0
      | Some st ->
        let b = cfg.Cfg.blocks.(id) in
        let st = ref st in
        let w = ref 0 in
        for pc = b.Cfg.first to b.Cfg.last do
          let instr = cfg.Cfg.program.(pc) in
          let iw =
            match instr with
            | Isa.Ecall ->
              let num = reg_itv !st 10 and len = reg_itv !st 12 in
              if Interval.contains num 3 then
                1 + Trace.sha_block_count (min len.Interval.hi (1 lsl 24))
              else 1
            | Isa.Jal (rd, tgt) when rd <> 0 && tgt >= 0 && tgt < n -> (
              match func_bound tgt with
              | Finding.Bounded cb -> sat_add 1 cb
              | Finding.Unbounded hs -> raise (Unbounded_exn hs))
            | _ -> 1
          in
          w := sat_add !w iw;
          st := transfer ~emit:(fun _ -> ()) ~pc instr !st
        done;
        !w
    in
    if !back = [] then begin
      (* acyclic: longest entry-to-exit path *)
      let memo = Array.make nb (-1) in
      let rec longest id =
        if memo.(id) >= 0 then memo.(id)
        else begin
          memo.(id) <- 0;
          let best =
            List.fold_left (fun acc s -> max acc (longest s)) 0 cfg.Cfg.blocks.(id).Cfg.succs
          in
          memo.(id) <- sat_add (block_weight id) best;
          memo.(id)
        end
      in
      let b = longest entry_id in
      if b >= sat_cap then raise (Unbounded_exn [ entry ]);
      b
    end
    else begin
      (* group back edges by header; natural-loop members by reverse
         reachability from the latches, not crossing the header *)
      let headers = List.sort_uniq Int.compare (List.map snd !back) in
      let header_pc h = cfg.Cfg.blocks.(h).Cfg.first in
      let fail h = raise (Unbounded_exn [ header_pc h ]) in
      let loops =
        List.map
          (fun h ->
            let latches = List.filter_map (fun (u, h') -> if h' = h then Some u else None) !back in
            let in_loop = Array.make nb false in
            in_loop.(h) <- true;
            let rec up id =
              if not in_loop.(id) then begin
                in_loop.(id) <- true;
                List.iter up preds.(id)
              end
            in
            List.iter (fun u -> if u <> h then up u) latches;
            (h, latches, in_loop))
          headers
      in
      (* reducibility: every loop entered only through its header *)
      List.iter
        (fun (h, _, in_loop) ->
          Array.iteri
            (fun id inl ->
              if inl && id <> h then
                List.iter
                  (fun p -> if not in_loop.(p) then fail h)
                  (List.filter (fun p -> member.(p)) preds.(id)))
            in_loop)
        loops;
      (* proper nesting: pairwise disjoint or contained *)
      List.iteri
        (fun i (h1, _, l1) ->
          List.iteri
            (fun j (_, _, l2) ->
              if j > i then begin
                let inter = ref false and d12 = ref false and d21 = ref false in
                Array.iteri
                  (fun id _ ->
                    let a = l1.(id) and b = l2.(id) in
                    if a && b then inter := true;
                    if a && not b then d12 := true;
                    if b && not a then d21 := true)
                  l1;
                if !inter && !d12 && !d21 then fail h1
              end)
            loops)
        loops;
      (* trip bound per loop *)
      let trip_of (h, latches, in_loop) =
        let candidates =
          (h :: (match latches with [ u ] -> [ u ] | _ -> []))
          |> List.filter (fun id ->
                 match cfg.Cfg.program.(cfg.Cfg.blocks.(id).Cfg.last) with
                 | Isa.Branch _ -> true
                 | _ -> false)
        in
        (* preheader state: join of out-states of member-external preds
           of the header (the states establishing the induction init) *)
        let pre =
          List.fold_left
            (fun acc p ->
              if in_loop.(p) then acc
              else
                match out_state p with
                | None -> acc
                | Some st -> ( match acc with None -> Some st | Some a -> Some (join_state a st)))
            None preds.(h)
        in
        match pre with
        | None -> None
        | Some pre ->
          let writes = Hashtbl.create 8 in
          Array.iteri
            (fun id inl ->
              if inl then
                let b = cfg.Cfg.blocks.(id) in
                for pc = b.Cfg.first to b.Cfg.last do
                  List.iter
                    (fun r ->
                      Hashtbl.replace writes r
                        (1 + Option.value (Hashtbl.find_opt writes r) ~default:0
                        + if List.length (writes_of cfg.Cfg.program.(pc)) > 1 then 1 else 0))
                    (writes_of cfg.Cfg.program.(pc))
                done)
            in_loop;
          let wcount r = Option.value (Hashtbl.find_opt writes r) ~default:0 in
          (* the unique Alui(ADD, r, r, imm) if r is written exactly once *)
          let induction_step r =
            if r = 0 || wcount r <> 1 then None
            else begin
              let step = ref None in
              Array.iteri
                (fun id inl ->
                  if inl then
                    let b = cfg.Cfg.blocks.(id) in
                    for pc = b.Cfg.first to b.Cfg.last do
                      match cfg.Cfg.program.(pc) with
                      | Isa.Alui (Isa.ADD, rd, rs1, imm) when rd = r && rs1 = r ->
                        step := Some (signed (imm land mask32))
                      | _ -> ()
                    done)
                in_loop;
              match !step with Some s when s <> 0 -> Some s | _ -> None
            end
          in
          let try_candidate id =
            let last = cfg.Cfg.blocks.(id).Cfg.last in
            match cfg.Cfg.program.(last) with
            | Isa.Branch (op, rs1, rs2, tgt) ->
              let memb pc = pc >= 0 && pc < n && in_loop.(cfg.Cfg.block_of_pc.(pc)) in
              let taken_in = memb tgt and fall_in = memb (last + 1) in
              if taken_in = fall_in then None
              else begin
                let continue_on_taken = taken_in in
                (* continue predicate: op if continuing on taken, else
                   its negation *)
                let cop =
                  if continue_on_taken then op
                  else
                    match op with
                    | Isa.BEQ -> Isa.BNE
                    | Isa.BNE -> Isa.BEQ
                    | Isa.BLT -> Isa.BGE
                    | Isa.BGE -> Isa.BLT
                    | Isa.BLTU -> Isa.BGEU
                    | Isa.BGEU -> Isa.BLTU
                in
                let signed_cmp = match cop with Isa.BLT | Isa.BGE -> true | _ -> false in
                let attempt ind lim rel =
                  match induction_step ind with
                  | Some s when wcount lim = 0 ->
                    trips ~signed_cmp rel (reg_itv pre ind) (reg_itv pre lim) s
                  | _ -> None
                in
                match cop with
                | Isa.BEQ -> None
                | Isa.BNE -> (
                  match attempt rs1 rs2 Ne with
                  | Some t -> Some t
                  | None -> attempt rs2 rs1 Ne)
                | Isa.BLT | Isa.BLTU -> (
                  (* continue while rs1 < rs2 *)
                  match attempt rs1 rs2 Lt with
                  | Some t -> Some t
                  | None -> attempt rs2 rs1 Gt)
                | Isa.BGE | Isa.BGEU -> (
                  (* continue while rs1 >= rs2 *)
                  match attempt rs1 rs2 Ge with
                  | Some t -> Some t
                  | None -> attempt rs2 rs1 Le)
              end
            | _ -> None
          in
          List.filter_map try_candidate candidates
          |> function
          | [] -> None
          | ts -> Some (List.fold_left min max_int ts)
      in
      let loop_trips =
        List.map
          (fun ((h, _, _) as l) ->
            match trip_of l with Some t -> (l, t) | None -> fail h)
          loops
      in
      let total = ref 0 in
      Array.iteri
        (fun id inl ->
          if inl then begin
            let mult =
              List.fold_left
                (fun acc ((_, _, in_loop), t) ->
                  if in_loop.(id) then sat_mul acc (sat_add t 1) else acc)
                1 loop_trips
            in
            total := sat_add !total (sat_mul mult (block_weight id))
          end)
        member;
      if !total >= sat_cap then raise (Unbounded_exn (List.map header_pc headers));
      !total
    end
  in
  let func_bounds = List.map (fun e -> (e, func_bound e)) cfg.Cfg.entries in
  let overall =
    match List.assoc_opt 0 func_bounds with
    | Some b -> b
    | None -> func_bound 0
  in
  (overall, func_bounds)

let analyze ?(subject = "program") instrs =
  let n = Array.length instrs in
  match wellformed instrs with
  | _ :: _ as bad ->
    {
      Finding.subject;
      instrs = n;
      blocks = 0;
      findings = Finding.normalize bad;
      cycle_bound = Finding.Unbounded [];
      func_bounds = [];
      proven_safe = false;
    }
  | [] ->
    let cfg = Cfg.build instrs in
    let block_in = solve cfg in
    let findings = ref [] in
    let emit f = findings := f :: !findings in
    let unproven_mem = ref false
    and unproven_ecall = ref false
    and has_jalr = ref false in
    let note = function
      | `Mem -> unproven_mem := true
      | `Ecall -> unproven_ecall := true
      | `Jalr -> has_jalr := true
    in
    (* reporting walk: each reachable block once, from its fixed entry
       state *)
    Array.iteri
      (fun id b ->
        match block_in.(id) with
        | None -> ()
        | Some st ->
          let st = ref st in
          for pc = b.Cfg.first to b.Cfg.last do
            st := step ~emit ~note ~pc cfg.Cfg.program.(pc) !st
          done)
      cfg.Cfg.blocks;
    let findings =
      Finding.normalize
        (escape_findings cfg @ unreachable_findings cfg @ List.rev !findings)
    in
    let overall, func_bounds = cycle_bound cfg block_in in
    let proven_safe =
      (not !unproven_mem) && (not !unproven_ecall) && (not !has_jalr)
      && cfg.Cfg.escapes = []
      && not (List.exists (fun f -> f.Finding.severity = Finding.Error) findings)
    in
    {
      Finding.subject;
      instrs = n;
      blocks = Array.length cfg.Cfg.blocks;
      findings;
      cycle_bound = overall;
      func_bounds;
      proven_safe;
    }
