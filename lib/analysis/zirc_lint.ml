module Zirc = Zkflow_lang.Zirc
module Zirc_parse = Zkflow_lang.Zirc_parse
module Trace = Zkflow_zkvm.Trace

let mask32 = 0xffffffff
let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* The compiler's expression register pool is t0..t6. *)
let max_expr_depth = 7

(* ---- structural depth: mirrors Zirc.compile_expr's depth discipline
   (operand 1 at the current depth, operand 2 one deeper; builtin call
   arguments at their argument index). *)

let rec need (e : Zirc.expr) =
  match e with
  | Int _ | Var _ | Read_word | Input_avail -> 1
  | Load a -> need a
  | Bin (_, a, b) | Cmp8 (a, b) -> max (need a) (1 + need b)

let args_need args = List.fold_left max 1 (List.mapi (fun i e -> i + need e) args)

let stmt_need (s : Zirc.stmt) =
  match s with
  | Let (_, e) | Set (_, e) | Commit e | Halt e | Debug e -> need e
  | If (c, _, _) | While (c, _) -> need c
  | Store (a, v) -> args_need [ a; v ]
  | Sha { src; words; dst } -> args_need [ src; words; dst ]
  | Read_words { dst; count } -> args_need [ dst; count ]
  | Commit_words { src; count } -> args_need [ src; count ]
  | Read_entries { dst; count } -> args_need [ dst; count ]
  | Leaf_hashes { entries; count; out } -> args_need [ entries; count; out ]
  | Merkle_root { leaves; count } -> args_need [ leaves; count ]

(* ---- constant folding (32-bit wrap-around, matching the interpreter) *)

let eval_bin (op : Zirc.binop) a b =
  match op with
  | Add -> (a + b) land mask32
  | Sub -> (a - b) land mask32
  | Mul ->
    Int64.to_int (Int64.logand (Int64.mul (Int64.of_int a) (Int64.of_int b)) 0xFFFFFFFFL)
  | Divu -> if b = 0 then mask32 else a / b
  | Remu -> if b = 0 then a else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> (a lsl (b land 31)) land mask32
  | Shr -> a lsr (b land 31)
  | Eq -> if a = b then 1 else 0
  | Neq -> if a <> b then 1 else 0
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Slt -> if signed a < signed b then 1 else 0

let rec const_of (e : Zirc.expr) =
  match e with
  | Int v -> Some (v land mask32)
  | Bin (op, a, b) -> (
    match (const_of a, const_of b) with
    | Some a, Some b -> Some (eval_bin op a b)
    | _ -> None)
  | _ -> None

(* ---- statements annotated with their source position (from
   {!Zirc_parse.parse_positioned}) or a structural path fallback *)

type astmt = {
  s : Zirc.stmt;
  loc : Finding.loc;
  trusted : bool;  (* //@ trusted pragma on the statement *)
  sub : astmt list list;
}

let rec annotate rpath i (s : Zirc.stmt) (p : Zirc_parse.stmt_pos option) =
  let rpath = i :: rpath in
  let loc =
    match p with
    | Some { Zirc_parse.pos = { line; col }; _ } -> Finding.Src { line; col }
    | None -> Finding.Stmt (List.rev rpath)
  in
  let trusted = match p with Some sp -> sp.Zirc_parse.trusted | None -> false in
  let subp j =
    match p with None -> None | Some sp -> List.nth_opt sp.Zirc_parse.sub j
  in
  let ablock j blk = annotate_block rpath blk (subp j) in
  let sub =
    match s with
    | Zirc.If (_, t, e) -> [ ablock 0 t; ablock 1 e ]
    | Zirc.While (_, b) -> [ ablock 0 b ]
    | _ -> []
  in
  { s; loc; trusted; sub }

and annotate_block rpath blk poss =
  List.mapi
    (fun i s ->
      let p = match poss with None -> None | Some l -> List.nth_opt l i in
      annotate rpath i s p)
    blk

(* ---- scope and definite assignment (forward) ----

   [declared] follows the compiler, which registers every [Let] it
   lowers in program order (both branches of an [If]); [assigned] is
   the definitely-assigned set: an [If] contributes the intersection of
   its branches, a [While] body contributes nothing (it may run zero
   times). Locals live in zero-initialised memory, so a read before
   assignment is well-defined — and almost certainly a bug. *)

module S = Set.Make (String)

type fstate = { declared : S.t; assigned : S.t }

let reserved_lo = Zirc.locals_base
let reserved_hi = Zirc.locals_base + 0x20000

let check_write_addr ~emit ~loc what a =
  match const_of a with
  | Some v when v >= Trace.ram_limit ->
    emit
      (Finding.error ~loc ~pass:"zirc-membounds"
         "%s word address 0x%x is outside guest RAM (limit 0x%x)" what v
         Trace.ram_limit)
  | Some v when v >= reserved_lo && v < reserved_hi ->
    emit
      (Finding.error ~loc ~pass:"zirc-membounds"
         "%s word address 0x%x falls in the compiler's local/spill region [0x%x, 0x%x)"
         what v reserved_lo reserved_hi)
  | _ -> ()

let rec check_expr ~emit ~loc st (e : Zirc.expr) =
  match e with
  | Int _ | Read_word | Input_avail -> ()
  | Var x ->
    if not (S.mem x st.declared) then
      emit
        (Finding.error ~loc ~pass:"zirc-scope" "use of undeclared variable %S" x)
    else if not (S.mem x st.assigned) then
      emit
        (Finding.error ~loc ~pass:"zirc-assign"
           "variable %S may be read before it is assigned on some path" x)
  | Load a ->
    (match const_of a with
     | Some v when v >= Trace.ram_limit ->
       emit
         (Finding.error ~loc ~pass:"zirc-membounds"
            "load from word address 0x%x is outside guest RAM (limit 0x%x)" v
            Trace.ram_limit)
     | _ -> ());
    check_expr ~emit ~loc st a
  | Bin (op, a, b) ->
    (match (op, b) with
     | (Divu | Remu), Zirc.Int 0 ->
       emit
         (Finding.warning ~loc ~pass:"zirc-divzero"
            "division/remainder by constant zero (x/0 = 2^32-1, x%%0 = x)")
     | _ -> ());
    check_expr ~emit ~loc st a;
    check_expr ~emit ~loc st b
  | Cmp8 (a, b) ->
    check_expr ~emit ~loc st a;
    check_expr ~emit ~loc st b

let rec fwd_block ~emit st l = List.fold_left (fwd_stmt ~emit) st l

and fwd_stmt ~emit st a =
  let loc = a.loc in
  let dn = stmt_need a.s in
  if dn > max_expr_depth then
    emit
      (Finding.error ~loc ~pass:"zirc-depth"
         "expression needs %d registers; the compiler's pool has %d (bind subexpressions to locals)"
         dn max_expr_depth);
  let ck e = check_expr ~emit ~loc st e in
  match a.s with
  | Zirc.Let (x, e) ->
    ck e;
    if S.mem x st.declared then
      emit
        (Finding.error ~loc ~pass:"zirc-scope"
           "duplicate declaration of %S (shadowing is not supported)" x);
    { declared = S.add x st.declared; assigned = S.add x st.assigned }
  | Set (x, e) ->
    ck e;
    if not (S.mem x st.declared) then
      emit
        (Finding.error ~loc ~pass:"zirc-scope"
           "assignment to undeclared variable %S (declare it with let)" x);
    { declared = S.add x st.declared; assigned = S.add x st.assigned }
  | Store (addr, v) ->
    ck addr;
    ck v;
    check_write_addr ~emit ~loc "store to" addr;
    st
  | If (c, _, _) ->
    ck c;
    let st_t = fwd_block ~emit st (List.nth a.sub 0) in
    let st_e = fwd_block ~emit { st with declared = st_t.declared } (List.nth a.sub 1) in
    {
      declared = st_e.declared;
      assigned = S.union st.assigned (S.inter st_t.assigned st_e.assigned);
    }
  | While (c, _) ->
    ck c;
    let st_b = fwd_block ~emit st (List.nth a.sub 0) in
    { declared = st_b.declared; assigned = st.assigned }
  | Commit e | Halt e | Debug e ->
    ck e;
    st
  | Sha { src; words; dst } ->
    ck src;
    ck words;
    ck dst;
    check_write_addr ~emit ~loc "sha destination" dst;
    st
  | Read_words { dst; count } ->
    ck dst;
    ck count;
    check_write_addr ~emit ~loc "read_words destination" dst;
    st
  | Commit_words { src; count } ->
    ck src;
    ck count;
    st
  | Read_entries { dst; count } ->
    ck dst;
    ck count;
    check_write_addr ~emit ~loc "read_entries destination" dst;
    st
  | Leaf_hashes { entries; count; out } ->
    ck entries;
    ck count;
    ck out;
    (* each entry's tag is written into the words before it *)
    let tag_words = Array.length Zkflow_zkvm.Guestlib.leaf_domain_words in
    check_write_addr ~emit ~loc "leaf_hashes tag" (Bin (Sub, entries, Int tag_words));
    check_write_addr ~emit ~loc "leaf_hashes output" out;
    st
  | Merkle_root { leaves; count } ->
    ck leaves;
    ck count;
    check_write_addr ~emit ~loc "merkle_root buffer" leaves;
    st

(* ---- dead stores (backward liveness) ----

   A [Set] whose value no later statement can read is dead. [Let] is
   exempt here — [let x = 0; ...; x = e] is the declare-then-assign
   idiom — and instead gets a whole-program "never read" warning. *)

let rec expr_vars acc (e : Zirc.expr) =
  match e with
  | Int _ | Read_word | Input_avail -> acc
  | Var x -> S.add x acc
  | Load a -> expr_vars acc a
  | Bin (_, a, b) | Cmp8 (a, b) -> expr_vars (expr_vars acc a) b

let stmt_reads (s : Zirc.stmt) =
  let es =
    match s with
    | Zirc.Let (_, e) | Set (_, e) | Commit e | Halt e | Debug e -> [ e ]
    | Store (a, v) -> [ a; v ]
    | If (c, _, _) | While (c, _) -> [ c ]
    | Sha { src; words; dst } -> [ src; words; dst ]
    | Read_words { dst; count } -> [ dst; count ]
    | Commit_words { src; count } -> [ src; count ]
    | Read_entries { dst; count } -> [ dst; count ]
    | Leaf_hashes { entries; count; out } -> [ entries; count; out ]
    | Merkle_root { leaves; count } -> [ leaves; count ]
  in
  List.fold_left expr_vars S.empty es

let rec live_block ~emit astmts after =
  List.fold_right (fun a acc -> live_stmt ~emit a acc) astmts after

and live_stmt ~emit a after =
  let reads = stmt_reads a.s in
  match a.s with
  | Zirc.Set (x, _) ->
    if not (S.mem x after) then
      emit
        (Finding.warning ~loc:a.loc ~pass:"zirc-dead"
           "dead store: the value assigned to %S here is never read" x);
    S.union reads (S.remove x after)
  | Let (x, _) -> S.union reads (S.remove x after)
  | If (_, _, _) ->
    let lt = live_block ~emit (List.nth a.sub 0) after in
    let le = live_block ~emit (List.nth a.sub 1) after in
    S.union reads (S.union lt le)
  | While (_, _) ->
    let body = List.nth a.sub 0 in
    let base = S.union reads after in
    (* fixpoint over the loop-carried live set, then one emitting pass *)
    let rec fix l =
      let l' = S.union base (live_block ~emit:(fun _ -> ()) body l) in
      if S.equal l' l then l else fix l'
    in
    let l = fix base in
    ignore (live_block ~emit body l);
    l
  | _ -> S.union reads after

let rec all_reads acc a =
  let acc = S.union acc (stmt_reads a.s) in
  List.fold_left (List.fold_left all_reads) acc a.sub

(* ---- code after an unconditional halt (source-level dead code) ----

   The compiled ZR0 also reports this ("unreachable"), but pointing at
   the surface statement is far more useful — and for compiled Zirc the
   audit drops the ZR0-level duplicates (the appended runtime produces
   spurious ones). One finding per trailing run. *)

let rec halts_block astmts = List.exists halts_stmt astmts

and halts_stmt a =
  match a.s with
  | Zirc.Halt _ -> true
  | Zirc.If (_, _, _) ->
    halts_block (List.nth a.sub 0) && halts_block (List.nth a.sub 1)
  | _ -> false

let rec check_after_halt ~emit astmts =
  let rec scan = function
    | prev :: (next :: _ as rest) ->
      if halts_stmt prev then
        emit
          (Finding.warning ~loc:next.loc ~pass:"zirc-unreachable"
             "statement can never execute: every path above has halted")
      else scan rest
    | _ -> ()
  in
  scan astmts;
  List.iter (fun a -> List.iter (check_after_halt ~emit) a.sub) astmts

let lint ?positions (prog : Zirc.program) =
  let ast = annotate_block [] prog positions in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  ignore (fwd_block ~emit { declared = S.empty; assigned = S.empty } ast);
  ignore (live_block ~emit ast S.empty);
  check_after_halt ~emit ast;
  let reads = List.fold_left all_reads S.empty ast in
  let rec warn_unused a =
    (match a.s with
     | Zirc.Let (x, _) when not (S.mem x reads) ->
       emit (Finding.warning ~loc:a.loc ~pass:"zirc-dead" "local %S is never read" x)
     | _ -> ());
    List.iter (List.iter warn_unused) a.sub
  in
  List.iter warn_unused ast;
  Finding.normalize !findings
