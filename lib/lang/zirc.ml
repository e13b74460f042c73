module Asm = Zkflow_zkvm.Asm
module Guestlib = Zkflow_zkvm.Guestlib

type binop =
  | Add | Sub | Mul
  | Divu | Remu
  | And | Or | Xor
  | Shl | Shr
  | Eq | Neq
  | Lt | Le | Gt | Ge
  | Slt

type expr =
  | Int of int
  | Var of string
  | Bin of binop * expr * expr
  | Load of expr
  | Read_word
  | Input_avail
  | Cmp8 of expr * expr

type stmt =
  | Let of string * expr
  | Set of string * expr
  | Store of expr * expr
  | If of expr * block * block
  | While of expr * block
  | Commit of expr
  | Sha of { src : expr; words : expr; dst : expr }
  | Read_words of { dst : expr; count : expr }
  | Commit_words of { src : expr; count : expr }
  | Read_entries of { dst : expr; count : expr }
  | Leaf_hashes of { entries : expr; count : expr; out : expr }
  | Merkle_root of { leaves : expr; count : expr }
  | Halt of expr
  | Debug of expr

and block = stmt list

type program = block

let entry_stride = Guestlib.entry_stride

let locals_base = 0x800000
let spill_base = locals_base + 0x10000

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

exception Compile_error of string

let cerror fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

type env = {
  slots : (string, int) Hashtbl.t;
  mutable next_slot : int;
  mutable next_label : int;
}

let fresh_label env prefix =
  env.next_label <- env.next_label + 1;
  Printf.sprintf "zirc.%s.%d" prefix env.next_label

let slot_of env name =
  match Hashtbl.find_opt env.slots name with
  | Some s -> s
  | None -> cerror "undefined variable %S" name

let declare env name =
  if Hashtbl.mem env.slots name then cerror "variable %S already declared" name;
  let s = env.next_slot in
  env.next_slot <- s + 1;
  Hashtbl.replace env.slots name s;
  s

(* Expression register stack: values live in t0..t6 bottom-up. *)
let pool = Asm.[ t0; t1; t2; t3; t4; t5; t6 ]

(* Spill every register below [depth] around an in-expression call
   (gl_ routines clobber the whole t-file). *)
let spill_around ~depth body =
  let save =
    Asm.block (List.init depth (fun i -> Asm.sw (List.nth pool i) Asm.zero (spill_base + i)))
  in
  let restore =
    Asm.block (List.init depth (fun i -> Asm.lw (List.nth pool i) Asm.zero (spill_base + i)))
  in
  Asm.block [ save; body; restore ]

let rec compile_expr env ~depth e =
  if depth >= List.length pool then
    cerror "expression too deep (max nesting %d); bind a subexpression with Let"
      (List.length pool);
  let dst = List.nth pool depth in
  let item =
    match e with
    | Int n -> Asm.li dst (n land 0xffffffff)
    | Var name -> Asm.lw dst Asm.zero (locals_base + slot_of env name)
    | Load addr ->
      Asm.block [ compile_expr env ~depth addr; Asm.lw dst dst 0 ]
    | Read_word ->
      (* read_word clobbers a0 only — no spill needed *)
      Asm.block [ Asm.read_word dst ]
    | Input_avail -> Asm.block [ Asm.input_avail dst ]
    | Bin (op, e1, e2) ->
      let c1 = compile_expr env ~depth e1 in
      let c2 = compile_expr env ~depth:(depth + 1) e2 in
      let rhs = List.nth pool (depth + 1) in
      let code =
        match op with
        | Add -> [ Asm.add dst dst rhs ]
        | Sub -> [ Asm.sub dst dst rhs ]
        | Mul -> [ Asm.mul dst dst rhs ]
        | Divu -> [ Asm.divu dst dst rhs ]
        | Remu -> [ Asm.remu dst dst rhs ]
        | And -> [ Asm.and_ dst dst rhs ]
        | Or -> [ Asm.or_ dst dst rhs ]
        | Xor -> [ Asm.xor dst dst rhs ]
        | Shl -> [ Asm.sll dst dst rhs ]
        | Shr -> [ Asm.srl dst dst rhs ]
        | Lt -> [ Asm.sltu dst dst rhs ]
        | Gt -> [ Asm.sltu dst rhs dst ]
        | Slt -> [ Asm.slt dst dst rhs ]
        | Le ->
          (* e1 <= e2  ⇔  not (e2 < e1) *)
          [ Asm.sltu dst rhs dst; Asm.xori dst dst 1 ]
        | Ge -> [ Asm.sltu dst dst rhs; Asm.xori dst dst 1 ]
        | Eq ->
          [ Asm.xor dst dst rhs; Asm.sltiu dst dst 1 ]
        | Neq ->
          [ Asm.xor dst dst rhs; Asm.sltiu dst dst 1; Asm.xori dst dst 1 ]
      in
      Asm.block (c1 :: c2 :: code)
    | Cmp8 (e1, e2) ->
      let c1 = compile_expr env ~depth e1 in
      let c2 = compile_expr env ~depth:(depth + 1) e2 in
      let rhs = List.nth pool (depth + 1) in
      let call_code =
        Asm.block
          [
            Asm.mv Asm.a0 dst;
            Asm.mv Asm.a1 rhs;
            Asm.call "gl_cmp8";
            Asm.mv dst Asm.a0;
          ]
      in
      (* the two operands are above [depth]; only regs strictly below
         dst hold values of an enclosing expression *)
      Asm.block [ c1; c2; spill_around ~depth call_code ]
  in
  item

(* Evaluate up to four operands into t0.. then move them into a0..;
   statements start with an empty register stack. *)
let compile_args env ops =
  let n = List.length ops in
  let evals = List.mapi (fun i e -> compile_expr env ~depth:i e) ops in
  let moves =
    List.mapi (fun i _ -> Asm.mv (List.nth Asm.[ a0; a1; a2; a3 ] i) (List.nth pool i)) ops
  in
  ignore n;
  Asm.block (evals @ moves)

let rec compile_stmt env stmt =
  match stmt with
  | Let (name, e) ->
    let code = compile_expr env ~depth:0 e in
    let slot = declare env name in
    Asm.block [ code; Asm.sw Asm.t0 Asm.zero (locals_base + slot) ]
  | Set (name, e) ->
    let slot = slot_of env name in
    Asm.block [ compile_expr env ~depth:0 e; Asm.sw Asm.t0 Asm.zero (locals_base + slot) ]
  | Store (addr, value) ->
    Asm.block
      [
        compile_expr env ~depth:0 addr;
        compile_expr env ~depth:1 value;
        Asm.sw Asm.t1 Asm.t0 0;
      ]
  | If (cond, then_b, else_b) ->
    let l_else = fresh_label env "else" in
    let l_end = fresh_label env "endif" in
    Asm.block
      [
        compile_expr env ~depth:0 cond;
        Asm.beq Asm.t0 Asm.zero l_else;
        compile_block env then_b;
        Asm.j l_end;
        Asm.label l_else;
        compile_block env else_b;
        Asm.label l_end;
      ]
  | While (cond, body) ->
    let l_top = fresh_label env "while" in
    let l_end = fresh_label env "wend" in
    Asm.block
      [
        Asm.label l_top;
        compile_expr env ~depth:0 cond;
        Asm.beq Asm.t0 Asm.zero l_end;
        compile_block env body;
        Asm.j l_top;
        Asm.label l_end;
      ]
  | Commit e -> Asm.block [ compile_expr env ~depth:0 e; Asm.commit Asm.t0 ]
  | Debug e -> Asm.block [ compile_expr env ~depth:0 e; Asm.debug Asm.t0 ]
  | Halt e ->
    Asm.block
      [
        compile_expr env ~depth:0 e;
        Asm.mv Asm.a1 Asm.t0;
        Asm.li Asm.a0 0;
        Asm.ecall;
      ]
  | Sha { src; words; dst } ->
    Asm.block
      [
        compile_expr env ~depth:0 src;
        compile_expr env ~depth:1 words;
        compile_expr env ~depth:2 dst;
        Asm.sha ~src:Asm.t0 ~words:Asm.t1 ~dst:Asm.t2;
      ]
  | Read_words { dst; count } ->
    Asm.block [ compile_args env [ dst; count ]; Asm.call "gl_read_words" ]
  | Commit_words { src; count } ->
    Asm.block [ compile_args env [ src; count ]; Asm.call "gl_commit_words" ]
  | Read_entries { dst; count } ->
    Asm.block [ compile_args env [ dst; count ]; Asm.call "gl_read_entries" ]
  | Leaf_hashes { entries; count; out } ->
    Asm.block [ compile_args env [ entries; count; out ]; Asm.call "gl_leaf_hashes" ]
  | Merkle_root { leaves; count } ->
    Asm.block [ compile_args env [ leaves; count ]; Asm.call "gl_merkle_root" ]

and compile_block env stmts = Asm.block (List.map (compile_stmt env) stmts)

let compile program =
  let env = { slots = Hashtbl.create 16; next_slot = 0; next_label = 0 } in
  match
    Asm.assemble [ compile_block env program; Asm.halt 0; Guestlib.all_fns ]
  with
  | p -> Ok p
  | exception Compile_error msg -> Error ("zirc: " ^ msg)
  | exception Invalid_argument msg -> Error ("zirc: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Reference interpreter                                               *)
(* ------------------------------------------------------------------ *)

type outcome = { journal : int array; debug : int list; exit_code : int }

exception Halted of int
exception Runtime_error of string

let rerror fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type state = {
  mem : (int, int) Hashtbl.t;
  vars : (string, int) Hashtbl.t;
  input : int array;
  mutable input_pos : int;
  mutable journal_rev : int list;
  mutable debug_rev : int list;
  mutable fuel : int;
}

let mask32 = 0xffffffff

let burn st =
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then rerror "fuel exhausted (non-terminating program?)"

let mem_read st a =
  if a < 0 || a >= Zkflow_zkvm.Trace.ram_limit then rerror "address out of range";
  Option.value (Hashtbl.find_opt st.mem a) ~default:0

let mem_write st a v =
  if a < 0 || a >= Zkflow_zkvm.Trace.ram_limit then rerror "address out of range";
  Hashtbl.replace st.mem a (v land mask32)

let signed v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

let sha_words st ~src ~words ~dst =
  if words < 0 then rerror "sha: negative length";
  let b = Bytes.create (4 * words) in
  for i = 0 to words - 1 do
    Bytes.set_int32_be b (4 * i) (Int32.of_int (mem_read st (src + i)))
  done;
  let digest = Zkflow_hash.Sha256.digest b in
  Array.iteri
    (fun i w -> mem_write st (dst + i) w)
    (Guestlib.words_of_digest digest)

let read_words st ~dst ~count =
  for i = 0 to count - 1 do
    if st.input_pos >= Array.length st.input then rerror "read past end of input";
    mem_write st (dst + i) st.input.(st.input_pos);
    st.input_pos <- st.input_pos + 1
  done

let leaf_hashes st ~entries ~count ~out =
  let tag_words = Guestlib.leaf_domain_words in
  for i = 0 to count - 1 do
    let tag = entries + (entry_stride * i) - Array.length tag_words in
    Array.iteri (fun k w -> mem_write st (tag + k) w) tag_words;
    sha_words st ~src:tag ~words:entry_stride ~dst:(out + (8 * i))
  done

let merkle_root st ~leaves ~count =
  let rec pow2 p = if p >= max 1 count then p else pow2 (2 * p) in
  let p = pow2 1 in
  for i = count to p - 1 do
    Array.iteri
      (fun k w -> mem_write st (leaves + (8 * i) + k) w)
      Guestlib.empty_leaf_words
  done;
  let size = ref p in
  while !size > 1 do
    for i = 0 to (!size / 2) - 1 do
      sha_words st ~src:(leaves + (16 * i)) ~words:16 ~dst:(leaves + (8 * i))
    done;
    size := !size / 2
  done

let rec eval st e =
  burn st;
  match e with
  | Int n -> n land mask32
  | Var name -> (
    match Hashtbl.find_opt st.vars name with
    | Some v -> v
    | None -> rerror "undefined variable %S" name)
  | Load a -> mem_read st (eval st a)
  | Read_word ->
    if st.input_pos >= Array.length st.input then rerror "read past end of input";
    let w = st.input.(st.input_pos) in
    st.input_pos <- st.input_pos + 1;
    w
  | Input_avail -> Array.length st.input - st.input_pos
  | Cmp8 (a, b) ->
    let a = eval st a and b = eval st b in
    let rec go k = k = 8 || (mem_read st (a + k) = mem_read st (b + k) && go (k + 1)) in
    if go 0 then 1 else 0
  | Bin (op, e1, e2) ->
    let a = eval st e1 in
    let b = eval st e2 in
    (match op with
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
     | Slt -> if signed a < signed b then 1 else 0)

let rec exec st stmt =
  burn st;
  match stmt with
  | Let (name, e) ->
    if Hashtbl.mem st.vars name then rerror "variable %S already declared" name;
    Hashtbl.replace st.vars name (eval st e)
  | Set (name, e) ->
    if not (Hashtbl.mem st.vars name) then rerror "undefined variable %S" name;
    Hashtbl.replace st.vars name (eval st e)
  | Store (a, v) ->
    let a = eval st a in
    let v = eval st v in
    mem_write st a v
  | If (c, t, e) -> exec_block st (if eval st c <> 0 then t else e)
  | While (c, body) ->
    while eval st c <> 0 do
      exec_block st body
    done
  | Commit e -> st.journal_rev <- eval st e :: st.journal_rev
  | Debug e -> st.debug_rev <- eval st e :: st.debug_rev
  | Halt e -> raise (Halted (eval st e))
  | Sha { src; words; dst } ->
    let src = eval st src in
    let words = eval st words in
    let dst = eval st dst in
    sha_words st ~src ~words ~dst
  | Read_words { dst; count } ->
    let dst = eval st dst in
    let count = eval st count in
    read_words st ~dst ~count
  | Read_entries { dst; count } ->
    let dst = eval st dst in
    let count = eval st count in
    for i = 0 to count - 1 do
      read_words st ~dst:(dst + (entry_stride * i)) ~count:8
    done
  | Commit_words { src; count } ->
    let src = eval st src in
    let count = eval st count in
    for i = 0 to count - 1 do
      st.journal_rev <- mem_read st (src + i) :: st.journal_rev
    done
  | Leaf_hashes { entries; count; out } ->
    let entries = eval st entries in
    let count = eval st count in
    let out = eval st out in
    leaf_hashes st ~entries ~count ~out
  | Merkle_root { leaves; count } ->
    let leaves = eval st leaves in
    let count = eval st count in
    merkle_root st ~leaves ~count

and exec_block st = List.iter (exec st)

let interpret ?(fuel = 10_000_000) program ~input =
  let st =
    {
      mem = Hashtbl.create 1024;
      vars = Hashtbl.create 16;
      input;
      input_pos = 0;
      journal_rev = [];
      debug_rev = [];
      fuel;
    }
  in
  let finish exit_code =
    Ok
      {
        journal = Array.of_list (List.rev st.journal_rev);
        debug = List.rev st.debug_rev;
        exit_code;
      }
  in
  match exec_block st program with
  | () -> finish 0
  | exception Halted code -> finish code
  | exception Runtime_error msg -> Error ("zirc interp: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)
(* ------------------------------------------------------------------ *)

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Divu -> "/" | Remu -> "%"
  | And -> "&" | Or -> "|" | Xor -> "^"
  | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Neq -> "!="
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Slt -> "<s"

let rec pp_expr ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Var v -> Format.pp_print_string ppf v
  | Bin (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_name op) pp_expr b
  | Load a -> Format.fprintf ppf "mem[%a]" pp_expr a
  | Read_word -> Format.pp_print_string ppf "read_word()"
  | Input_avail -> Format.pp_print_string ppf "input_avail()"
  | Cmp8 (a, b) -> Format.fprintf ppf "cmp8(%a, %a)" pp_expr a pp_expr b

let rec pp_stmt ppf = function
  | Let (v, e) -> Format.fprintf ppf "let %s = %a" v pp_expr e
  | Set (v, e) -> Format.fprintf ppf "%s = %a" v pp_expr e
  | Store (a, v) -> Format.fprintf ppf "mem[%a] = %a" pp_expr a pp_expr v
  | If (c, t, e) ->
    Format.fprintf ppf "@[<v 2>if %a {%a@]@,@[<v 2>} else {%a@]@,}" pp_expr c
      pp_block t pp_block e
  | While (c, b) ->
    Format.fprintf ppf "@[<v 2>while %a {%a@]@,}" pp_expr c pp_block b
  | Commit e -> Format.fprintf ppf "commit(%a)" pp_expr e
  | Debug e -> Format.fprintf ppf "debug(%a)" pp_expr e
  | Halt e -> Format.fprintf ppf "halt(%a)" pp_expr e
  | Sha { src; words; dst } ->
    Format.fprintf ppf "sha(%a, %a, %a)" pp_expr src pp_expr words pp_expr dst
  | Read_words { dst; count } ->
    Format.fprintf ppf "read_words(%a, %a)" pp_expr dst pp_expr count
  | Commit_words { src; count } ->
    Format.fprintf ppf "commit_words(%a, %a)" pp_expr src pp_expr count
  | Read_entries { dst; count } ->
    Format.fprintf ppf "read_entries(%a, %a)" pp_expr dst pp_expr count
  | Leaf_hashes { entries; count; out } ->
    Format.fprintf ppf "leaf_hashes(%a, %a, %a)" pp_expr entries pp_expr count pp_expr out
  | Merkle_root { leaves; count } ->
    Format.fprintf ppf "merkle_root(%a, %a)" pp_expr leaves pp_expr count

and pp_block ppf b =
  List.iter (fun s -> Format.fprintf ppf "@,%a" pp_stmt s) b

let pp_program ppf p = Format.fprintf ppf "@[<v>%a@]" pp_block p
