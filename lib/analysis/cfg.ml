module Isa = Zkflow_zkvm.Isa

type block = {
  id : int;
  first : int;
  last : int;
  succs : int list;  (* block ids *)
}

type t = {
  program : Isa.t array;
  blocks : block array;
  block_of_pc : int array;
  reachable : bool array;
  entries : int list;
  escapes : (int * int) list;
}

(* A halt is the [li a0, 0; ecall] idiom every code path in the
   assembler and the Zirc compiler emits. Recognising it syntactically
   keeps the CFG precise without needing the dataflow result; an ecall
   whose call number is set any other way conservatively keeps its
   fall-through edge. So does an ecall some branch or jump targets
   ([targeted]): control arriving there skips the [li a0, 0], and a0
   may name a call that returns. *)
let is_terminal_halt ~targeted program pc =
  match program.(pc) with
  | Isa.Ecall -> pc > 0 && program.(pc - 1) = Isa.Lui (10, 0) && not targeted.(pc)
  | _ -> false

(* Function-local successors. ZR0 code only materialises code addresses
   through link registers, so a linking [Jal]/[Jalr] is a call (control
   comes back to pc+1) and [Jalr x0] is a return (exits the function);
   callees are analysed as their own functions. Arithmetic on a return
   address escapes this model and is out of scope (DESIGN.md §8). *)
let raw_succs ~targeted program pc =
  match program.(pc) with
  | Isa.Branch (_, _, _, tgt) -> [ tgt; pc + 1 ]
  | Isa.Jal (0, tgt) -> [ tgt ]
  | Isa.Jal (_, _) -> [ pc + 1 ]        (* call: resumes after return *)
  | Isa.Jalr (0, _, _) -> []            (* return *)
  | Isa.Jalr (_, _, _) -> [ pc + 1 ]    (* indirect call *)
  | Isa.Ecall -> if is_terminal_halt ~targeted program pc then [] else [ pc + 1 ]
  | _ -> [ pc + 1 ]

let build program =
  let n = Array.length program in
  if n = 0 then invalid_arg "Cfg.build: empty program";
  let targeted = Array.make n false in
  Array.iter
    (function
      | Isa.Branch (_, _, _, tgt) | Isa.Jal (_, tgt) when tgt >= 0 && tgt < n ->
        targeted.(tgt) <- true
      | _ -> ())
    program;
  let succs_of_pc = Array.init n (fun pc -> raw_succs ~targeted program pc) in
  (* Edges leaving [0, n) are defects (the machine traps on fetch);
     keep them aside and clip the graph to in-range pcs. *)
  let escapes = ref [] in
  let in_range =
    Array.map (fun succs -> List.filter (fun t -> t >= 0 && t < n) succs) succs_of_pc
  in
  Array.iteri
    (fun pc succs ->
      List.iter
        (fun t -> if t < 0 || t >= n then escapes := (pc, t) :: !escapes)
        succs)
    succs_of_pc;
  (* A call's target is not a successor edge (control resumes at pc+1),
     so an out-of-range callee must be caught here or it would vanish
     from the graph entirely — while the machine traps on fetch. *)
  Array.iteri
    (fun pc instr ->
      match instr with
      | Isa.Jal (rd, tgt) when rd <> 0 && (tgt < 0 || tgt >= n) ->
        escapes := (pc, tgt) :: !escapes
      | _ -> ())
    program;
  (* Leaders: the program entry, every pc after a control-flow
     instruction, every in-range control target, every callee entry. *)
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun pc instr ->
      let ends_block =
        match instr with
        | Isa.Branch _ | Isa.Jal _ | Isa.Jalr _ | Isa.Ecall -> true
        | _ -> false
      in
      if ends_block then begin
        if pc + 1 < n then leader.(pc + 1) <- true;
        List.iter (fun t -> leader.(t) <- true) in_range.(pc)
      end;
      match instr with
      | Isa.Jal (rd, tgt) when rd <> 0 && tgt >= 0 && tgt < n -> leader.(tgt) <- true
      | _ -> ())
    program;
  let block_of_pc = Array.make n 0 in
  let firsts = ref [] in
  for pc = n - 1 downto 0 do
    if leader.(pc) then firsts := pc :: !firsts
  done;
  let firsts = Array.of_list !firsts in
  let nb = Array.length firsts in
  let blocks =
    Array.init nb (fun id ->
        let first = firsts.(id) in
        let last = if id + 1 < nb then firsts.(id + 1) - 1 else n - 1 in
        for pc = first to last do
          block_of_pc.(pc) <- id
        done;
        { id; first; last; succs = [] })
  in
  let blocks =
    Array.map
      (fun b ->
        let succs =
          List.sort_uniq Int.compare
            (List.map (fun t -> block_of_pc.(t)) in_range.(b.last))
        in
        { b with succs })
      blocks
  in
  (* Reachability from the entry, following local edges and discovering
     callees: a reachable linking jump makes its target a live function
     entry analysed from its own entry block. *)
  let reachable = Array.make nb false in
  let entries = ref [ 0 ] in
  let rec dfs id =
    if not reachable.(id) then begin
      reachable.(id) <- true;
      let last = blocks.(id).last in
      (match program.(last) with
       | Isa.Jal (rd, tgt) when rd <> 0 && tgt >= 0 && tgt < n ->
         if not (List.mem tgt !entries) then entries := tgt :: !entries;
         dfs block_of_pc.(tgt)
       | _ -> ());
      List.iter dfs blocks.(id).succs
    end
  in
  dfs 0;
  {
    program;
    blocks;
    block_of_pc;
    reachable;
    entries = List.rev !entries;
    escapes = List.rev !escapes;
  }

let reachable_pc t pc = t.reachable.(t.block_of_pc.(pc))

(* Back edges over the local (intra-function) graph, searched from
   every live entry: the solver's widening points. Dominance is not
   needed; widening at any DFS back-edge target cuts every cycle. *)
let back_edge_headers t =
  let nb = Array.length t.blocks in
  let color = Array.make nb 0 in
  (* 0 white, 1 grey, 2 black *)
  let headers = ref [] in
  let rec dfs id =
    color.(id) <- 1;
    List.iter
      (fun s ->
        if color.(s) = 1 then headers := t.blocks.(s).first :: !headers
        else if color.(s) = 0 then dfs s)
      t.blocks.(id).succs;
    color.(id) <- 2
  in
  List.iter
    (fun entry ->
      let id = t.block_of_pc.(entry) in
      if color.(id) = 0 then dfs id)
    t.entries;
  List.sort_uniq Int.compare !headers

let pp ppf t =
  Array.iter
    (fun b ->
      Format.fprintf ppf "block %d: pc %d..%d -> [%s]%s%s@." b.id b.first b.last
        (String.concat "," (List.map string_of_int b.succs))
        (if List.mem b.first t.entries then " (entry)" else "")
        (if t.reachable.(b.id) then "" else " (unreachable)"))
    t.blocks
