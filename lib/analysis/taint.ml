(* Information-flow (taint) analysis for untrusted telemetry inputs.

   Threat model (PAPER.md): router exports arrive as the guest's
   private input and are *untrusted* until the guest authenticates them
   against a commitment the verifier pins (the CLog root). Data that
   reaches the receipt's journal without passing such a validation is a
   lie-by-construction hazard: the receipt proves only that *some*
   input produced the output.

   Lattice: Clean ⊑ Checked ⊑ Tainted.
   - sources: the input ecalls ([read_word]/[input_avail] in Zirc,
     ecall 1/5 in ZR0) produce Tainted, and a block read (ecall 6)
     taints RAM;
   - validation: traversing a comparison laundering Tainted → Checked
     on both outcomes — branching on untrusted data is exactly what
     "the guest validated it" looks like at this level (a wrong
     predicate is out of scope, as for any taint system). For the
     Merkle idiom, [cmp8] over a region launders the region and,
     transitively, every region it was derived from ([leaf_hashes] /
     [merkle_root] / [sha] record provenance): checking the root
     authenticates the entries it was hashed from;
   - sinks: journal commits ([commit]/[commit_words], ecall 2, and a
     block commit of RAM, ecall 7) and
     memory address operands. A Tainted value at a sink is an error
     finding (pass "taint-journal" / "taint-addr"). The prover gate
     does NOT run this pass — `zkflow audit` does, so operators can
     adopt it without changing what proves.

   The Zirc pass is the authoritative one for compiled programs (the
   ZR0 pass is intraprocedural and models calls as returning Checked,
   so flows through the guestlib runtime are deliberately out of its
   scope); `zkflow audit` runs the Zirc pass on sources and the ZR0
   pass on raw assembly. A statement under a [//@ trusted] pragma has
   its sources demoted to Checked and its sink findings suppressed
   (counted, for the obs counters). *)

module Isa = Zkflow_zkvm.Isa
module Ecall = Zkflow_zkvm.Ecall
module Zirc = Zkflow_lang.Zirc

type level = Clean | Checked | Tainted

let join_level a b =
  match (a, b) with
  | Tainted, _ | _, Tainted -> Tainted
  | Checked, _ | _, Checked -> Checked
  | Clean, Clean -> Clean

let launder = function Tainted -> Checked | l -> l
let level_name = function Clean -> "clean" | Checked -> "checked" | Tainted -> "tainted"

(* ==== Zirc AST pass ==== *)

module SM = Map.Make (String)
module IM = Map.Make (Int)

(* A memory region, keyed by the constant base address of the statement
   that wrote it. [deps] is provenance: bases this region was derived
   from (hashing is collision-resistant, so validating a derived digest
   authenticates its preimage region too). *)
type region = { taint : level; deps : int list }

type zstate = {
  vars : (level * int option) SM.t;  (* taint, known base address *)
  regions : region IM.t;
  halted : bool;
}

let zinit = { vars = SM.empty; regions = IM.empty; halted = false }

let join_var (l1, b1) (l2, b2) =
  (join_level l1 l2, if b1 = b2 then b1 else None)

let join_region r1 r2 =
  { taint = join_level r1.taint r2.taint; deps = List.sort_uniq Int.compare (r1.deps @ r2.deps) }

let join_zstate a b =
  if a.halted then { b with halted = false }
  else if b.halted then { a with halted = false }
  else
    {
      vars = SM.union (fun _ v1 v2 -> Some (join_var v1 v2)) a.vars b.vars;
      regions = IM.union (fun _ r1 r2 -> Some (join_region r1 r2)) a.regions b.regions;
      halted = false;
    }

let equal_zstate (a : zstate) b =
  a.halted = b.halted && SM.equal ( = ) a.vars b.vars && IM.equal ( = ) a.regions b.regions

let region_taint st base =
  match IM.find_opt base st.regions with Some r -> r.taint | None -> Clean

(* All regions reachable through provenance from [base]. *)
let dep_closure st base =
  let rec go seen = function
    | [] -> seen
    | b :: rest ->
      if List.mem b seen then go seen rest
      else
        let deps = match IM.find_opt b st.regions with Some r -> r.deps | None -> [] in
        go (b :: seen) (deps @ rest)
  in
  go [] [ base ]

let launder_region st base =
  List.fold_left
    (fun st b ->
      match IM.find_opt b st.regions with
      | Some r -> { st with regions = IM.add b { r with taint = launder r.taint } st.regions }
      | None -> st)
    st (dep_closure st base)

(* Evaluate an expression to (taint, known base address). [~trusted]
   demotes sources to Checked. Also flags Tainted memory-address
   operands (the address sink) via [emit]. *)
let rec eval ~emit ~loc ~trusted st (e : Zirc.expr) =
  match e with
  | Zirc.Int v -> (Clean, Some (v land 0xffffffff))
  | Zirc.Var x -> (
    match SM.find_opt x st.vars with Some v -> v | None -> (Clean, None))
  | Zirc.Read_word | Zirc.Input_avail ->
    ((if trusted then Checked else Tainted), None)
  | Zirc.Load a ->
    let base = addr_operand ~emit ~loc ~trusted ~what:"load" st a in
    let t =
      match base with
      | Some b -> region_taint st b
      | None ->
        (* unknown address: any region could be read *)
        IM.fold (fun _ r acc -> join_level acc r.taint) st.regions Clean
    in
    (t, None)
  | Zirc.Bin (op, a, b) ->
    let ta, ba = eval ~emit ~loc ~trusted st a in
    let tb, _ = eval ~emit ~loc ~trusted st b in
    let base =
      (* address arithmetic: base + anything stays within the region
         (coarse, but regions are statement-granular anyway) *)
      match (op, ba) with Zirc.Add, Some _ -> ba | _ -> None
    in
    (join_level ta tb, base)
  | Zirc.Cmp8 (a, b) ->
    (* both operands are addresses of 8-word digests *)
    let ba = addr_operand ~emit ~loc ~trusted ~what:"cmp8" st a in
    let bb = addr_operand ~emit ~loc ~trusted ~what:"cmp8" st b in
    let rt = function Some b -> region_taint st b | None -> Clean in
    (join_level (rt ba) (rt bb), None)

(* An expression used as a memory address: evaluate it, flag it if
   Tainted, and return its base. *)
and addr_operand ~emit ~loc ~trusted ~what st e =
  let t, base = eval ~emit ~loc ~trusted st e in
  if t = Tainted then
    emit
      (Finding.error ~loc ~pass:"taint-addr"
         "untrusted input used as %s address without validation" what);
  base

(* Validation: any comparison in a branch condition launders its
   operands' variables; [cmp8] additionally launders the compared
   regions and their provenance closure. *)
let rec launder_cond st (e : Zirc.expr) =
  let quiet st e = eval ~emit:(fun _ -> ()) ~loc:Finding.Nowhere ~trusted:false st e in
  match e with
  | Zirc.Int _ | Zirc.Var _ | Zirc.Read_word | Zirc.Input_avail -> st
  | Zirc.Load a -> launder_cond st a
  | Zirc.Bin (op, a, b) ->
    let st = launder_cond (launder_cond st a) b in
    let is_cmp =
      match op with
      | Zirc.Eq | Zirc.Neq | Zirc.Lt | Zirc.Le | Zirc.Gt | Zirc.Ge | Zirc.Slt -> true
      | _ -> false
    in
    if not is_cmp then st
    else
      let rec launder_vars st (e : Zirc.expr) =
        match e with
        | Zirc.Var x -> (
          match SM.find_opt x st.vars with
          | Some (t, base) -> { st with vars = SM.add x (launder t, base) st.vars }
          | None -> st)
        | Zirc.Bin (_, a, b) -> launder_vars (launder_vars st a) b
        | Zirc.Load a -> launder_vars st a
        | _ -> st
      in
      launder_vars (launder_vars st a) b
  | Zirc.Cmp8 (a, b) ->
    let st =
      match snd (quiet st a) with Some base -> launder_region st base | None -> st
    in
    (match snd (quiet st b) with Some base -> launder_region st base | None -> st)

let set_region st base r = { st with regions = IM.add base r st.regions }

let taint_all st t =
  {
    st with
    regions = IM.map (fun r -> { r with taint = join_level r.taint t }) st.regions;
  }

(* One statement. [emit'] is the possibly-suppressed emitter for this
   statement ([//@ trusted]); nested blocks inherit suppression. *)
let rec exec_stmt ~emit ~suppressed (a : Zirc_lint.astmt) st =
  if st.halted then st
  else begin
    let loc = a.Zirc_lint.loc in
    let trusted = a.Zirc_lint.trusted in
    let emit' f =
      if trusted then incr suppressed
      else emit f
    in
    let ev e = eval ~emit:emit' ~loc ~trusted st e in
    let addr ~what e = addr_operand ~emit:emit' ~loc ~trusted ~what st e in
    match a.Zirc_lint.s with
    | Zirc.Let (x, e) | Zirc.Set (x, e) ->
      let v = ev e in
      { st with vars = SM.add x v st.vars }
    | Zirc.Store (ae, ve) ->
      let t, _ = ev ve in
      let base = addr ~what:"store" ae in
      (match base with
       | Some b ->
         let r =
           match IM.find_opt b st.regions with
           | Some r -> { r with taint = join_level r.taint t }
           | None -> { taint = t; deps = [] }
         in
         set_region st b r
       | None -> taint_all st t)
    | Zirc.If (c, _, _) ->
      ignore (ev c);
      let st = launder_cond st c in
      let st_t =
        exec_block ~emit ~suppressed (List.nth a.Zirc_lint.sub 0) st
      and st_e =
        exec_block ~emit ~suppressed (List.nth a.Zirc_lint.sub 1) st
      in
      if st_t.halted && st_e.halted then { st with halted = true }
      else join_zstate st_t st_e
    | Zirc.While (c, _) ->
      let body = List.nth a.Zirc_lint.sub 0 in
      (* silent fixpoint over the loop-entry state (finite lattice,
         finitely many variable/region keys), then one emitting pass *)
      let silent _ = () in
      let rec fix x =
        let at_cond = launder_cond x c in
        let after = exec_block ~emit:silent ~suppressed:(ref 0) body at_cond in
        let x' = if after.halted then x else join_zstate x after in
        if equal_zstate x' x then x else fix x'
      in
      let x = fix st in
      ignore (eval ~emit:emit' ~loc ~trusted x c);
      let at_cond = launder_cond x c in
      ignore (exec_block ~emit ~suppressed body at_cond);
      (* exit state: the condition was traversed (laundering applies),
         the body may have run any number of times *)
      at_cond
    | Zirc.Commit e ->
      let t, _ = ev e in
      if t = Tainted then
        emit'
          (Finding.error ~loc ~pass:"taint-journal"
             "untrusted input flows to the journal without validation (commit)");
      st
    | Zirc.Commit_words { src; count } ->
      ignore (ev count);
      let base = addr ~what:"commit_words source" src in
      let t = match base with Some b -> region_taint st b | None ->
        IM.fold (fun _ r acc -> join_level acc r.taint) st.regions Clean
      in
      if t = Tainted then
        emit'
          (Finding.error ~loc ~pass:"taint-journal"
             "untrusted region flows to the journal without validation (commit_words)");
      st
    | Zirc.Read_words { dst; count } | Zirc.Read_entries { dst; count } ->
      ignore (ev count);
      let what =
        match a.Zirc_lint.s with
        | Zirc.Read_entries _ -> "read_entries destination"
        | _ -> "read_words destination"
      in
      let base = addr ~what dst in
      let t = if trusted then Checked else Tainted in
      (match base with
       | Some b -> set_region st b { taint = t; deps = [] }
       | None -> taint_all st t)
    | Zirc.Sha { src; words; dst } ->
      ignore (ev words);
      let sbase = addr ~what:"sha source" src in
      let dbase = addr ~what:"sha destination" dst in
      let t = match sbase with Some b -> region_taint st b | None -> Tainted in
      (match dbase with
       | Some b ->
         set_region st b { taint = t; deps = (match sbase with Some s -> [ s ] | None -> []) }
       | None -> taint_all st t)
    | Zirc.Leaf_hashes { entries; count; out } ->
      ignore (ev count);
      let ebase = addr ~what:"leaf_hashes entries" entries in
      let obase = addr ~what:"leaf_hashes output" out in
      let t = match ebase with Some b -> region_taint st b | None -> Tainted in
      let deps = match ebase with Some e -> [ e ] | None -> [] in
      (match obase with
       | Some b -> set_region st b { taint = t; deps }
       | None -> taint_all st t)
    | Zirc.Merkle_root { leaves; count } ->
      ignore (ev count);
      (* in-place reduction: taint and provenance of the buffer keep *)
      ignore (addr ~what:"merkle_root buffer" leaves);
      st
    | Zirc.Halt e ->
      ignore (ev e);
      { st with halted = true }
    | Zirc.Debug e ->
      ignore (ev e);
      st
  end

and exec_block ~emit ~suppressed astmts st =
  List.fold_left (fun st a -> exec_stmt ~emit ~suppressed a st) st astmts

let check_zirc ?positions (prog : Zirc.program) =
  let ast = Zirc_lint.annotate_block [] prog positions in
  let findings = ref [] in
  let suppressed = ref 0 in
  let emit f = findings := f :: !findings in
  ignore (exec_block ~emit ~suppressed ast zinit);
  (Finding.normalize !findings, !suppressed)

(* ==== ZR0 pass ====

   Runs after {!Zr0_checks.solve}; the per-pc value states resolve
   ecall numbers. Registers carry a taint level; all of guest RAM is
   one summary cell (raw assembly has no statement-granular regions).
   Intraprocedural: calls return Checked in every clobbered register,
   so only flows *within* a function body are tracked — the Zirc pass
   is the authoritative one for compiled programs. *)

type ztaint = { regs : level array; mem : level }

let jt a b =
  { regs = Array.init 32 (fun i -> join_level a.regs.(i) b.regs.(i));
    mem = join_level a.mem b.mem }

let taint_entry main =
  { regs = Array.make 32 (if main then Clean else Checked);
    mem = (if main then Clean else Checked) }

(* Value state at each pc, from the block-entry fixpoint. *)
let per_pc_values (cfg : Cfg.t) block_in =
  let n = Array.length cfg.Cfg.program in
  let vals = Array.make n None in
  Array.iteri
    (fun id (b : Cfg.block) ->
      match block_in.(id) with
      | None -> ()
      | Some st ->
        let st = ref st in
        for pc = b.Cfg.first to b.Cfg.last do
          vals.(pc) <- Some !st;
          st := Zr0_checks.transfer ~emit:(fun _ -> ()) ~pc cfg.Cfg.program.(pc) !st
        done)
    cfg.Cfg.blocks;
  vals

let zr0_step ~emit ~pc ~vals instr (t : ztaint) =
  let t = { t with regs = Array.copy t.regs } in
  let lv r = if r = 0 then Clean else t.regs.(r) in
  let set r l = if r <> 0 then t.regs.(r) <- l in
  let addr_sink ~what r =
    if lv r = Tainted then
      emit
        (Finding.error ~loc:(Finding.Pc pc) ~pass:"taint-addr"
           "untrusted input used as %s address without validation" what)
  in
  match (instr : Isa.t) with
  | Alu (_, rd, rs1, rs2) ->
    set rd (join_level (lv rs1) (lv rs2));
    t
  | Alui (_, rd, rs1, _) ->
    set rd (lv rs1);
    t
  | Lui (rd, _) ->
    set rd Clean;
    t
  | Lw (rd, rs1, _) ->
    addr_sink ~what:"load" rs1;
    set rd t.mem;
    t
  | Sw (rs2, rs1, _) ->
    addr_sink ~what:"store" rs1;
    { t with mem = join_level t.mem (lv rs2) }
  | Branch (_, rs1, rs2, _) ->
    (* validation: branching on a value launders it on both outcomes *)
    set rs1 (launder (lv rs1));
    set rs2 (launder (lv rs2));
    t
  | Jal (0, _) -> t
  | Jal (_, _) | Jalr (_, _, _) ->
    (* call (or indirect transfer): intraprocedural summary *)
    for r = 1 to 31 do
      t.regs.(r) <- Checked
    done;
    t
  | Ecall ->
    let num =
      match vals with
      | Some vs -> Interval.is_const (Zr0_checks.reg_itv vs 10)
      | None -> None
    in
    (match Option.bind num Ecall.of_number with
     | Some c when Ecall.block c ->
       (* A block call moves RAM words: a block read taints RAM, and a
          block commit publishes it. *)
       addr_sink ~what:"block" 11;
       if Ecall.writes_journal c && t.mem = Tainted then
         emit
           (Finding.error ~loc:(Finding.Pc pc) ~pass:"taint-journal"
              "untrusted region flows to the journal without validation (ecall %d)"
              (Ecall.number c));
       if Ecall.reads_input c then { t with mem = Tainted } else t
     | Some c ->
       if Ecall.writes_journal c && lv 11 = Tainted then
         emit
           (Finding.error ~loc:(Finding.Pc pc) ~pass:"taint-journal"
              "untrusted input flows to the journal without validation (ecall %d, a1 is %s)"
              (Ecall.number c) (level_name (lv 11)));
       if c = Ecall.Sha then begin
         addr_sink ~what:"sha source" 11;
         addr_sink ~what:"sha destination" 13
       end;
       List.iter (fun r -> set r (if Ecall.reads_input c then Tainted else Clean))
         (Ecall.result_regs c);
       t
     | None ->
       (* unresolved call number: assume the worst about results *)
       set 10 Tainted;
       t)

let reg_ok r = match r with Some r when r < 0 || r > 31 -> false | _ -> true

let check_zr0 instrs =
  let malformed =
    Array.exists
      (fun instr ->
        let r1, r2, rd = Isa.registers_used instr in
        not (reg_ok r1 && reg_ok r2 && reg_ok rd))
      instrs
  in
  if malformed || Array.length instrs = 0 then []
  else begin
    let cfg = Cfg.build instrs in
    let block_in = Zr0_checks.solve cfg in
    let vals = per_pc_values cfg block_in in
    let taint_in =
      Dataflow.solve
        ~entry:(fun pc -> taint_entry (pc = 0))
        ~join:jt
        ~equal:(fun a b -> a.regs = b.regs && a.mem = b.mem)
        ~transfer:(fun ~pc instr t ->
          zr0_step ~emit:(fun _ -> ()) ~pc ~vals:vals.(pc) instr t)
        cfg
    in
    let findings = ref [] in
    let emit f = findings := f :: !findings in
    Array.iteri
      (fun id (b : Cfg.block) ->
        match taint_in.(id) with
        | None -> ()
        | Some t ->
          let t = ref t in
          for pc = b.Cfg.first to b.Cfg.last do
            t := zr0_step ~emit ~pc ~vals:vals.(pc) cfg.Cfg.program.(pc) !t
          done)
      cfg.Cfg.blocks;
    Finding.normalize !findings
  end
