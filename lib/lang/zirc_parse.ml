(* Hand-written lexer + recursive-descent parser for the Zirc surface
   syntax. Kept dependency-free (no menhir) and error-positioned. *)

type token =
  | INT of int
  | IDENT of string
  | KW of string       (* let if else while mem *)
  | PUNCT of string    (* ( ) { } [ ] ; , = *)
  | OP of string       (* + - * & | ^ << >> == != < <= > >= <s *)
  | PRAGMA of string   (* //@ word — annotation for the next statement *)
  | EOF

type lexed = { tok : token; line : int; col : int }
type pos = { line : int; col : int }
type stmt_pos = { pos : pos; trusted : bool; sub : stmt_pos list list }

exception Error of string

let err ~line ~col fmt =
  Format.kasprintf (fun s -> raise (Error (Printf.sprintf "%d:%d: %s" line col s))) fmt

let keywords = [ "let"; "if"; "else"; "while"; "mem" ]

let lex src =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let emit tok = out := { tok; line = !line; col = !col } :: !out in
  let advance k =
    for j = !i to min (n - 1) (!i + k - 1) do
      if src.[j] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col
    done;
    i := !i + k
  in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance 1
    else if c = '/' && peek 1 = Some '/' && peek 2 = Some '@' then begin
      (* `//@ word`: an annotation pragma attached to the next
         statement (the only one today is `trusted`, read by the taint
         pass). Anything else on the line is still a comment. *)
      let sline = !line and scol = !col in
      advance 3;
      while !i < n && (src.[!i] = ' ' || src.[!i] = '\t') do
        advance 1
      done;
      let start = !i in
      while
        !i < n
        && (let c = src.[!i] in
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c = '_' || c = '-')
      do
        advance 1
      done;
      let word = String.sub src start (!i - start) in
      if word = "" then err ~line:sline ~col:scol "empty //@ pragma";
      out := { tok = PRAGMA word; line = sline; col = scol } :: !out;
      while !i < n && src.[!i] <> '\n' do
        advance 1
      done
    end
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && src.[!i] <> '\n' do
        advance 1
      done
    end
    else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' then begin
      let start = !i in
      let scol = !col and sline = !line in
      while
        !i < n
        && (let c = src.[!i] in
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c = '_')
      do
        advance 1
      done;
      let word = String.sub src start (!i - start) in
      let tok = if List.mem word keywords then KW word else IDENT word in
      out := { tok; line = sline; col = scol } :: !out
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      let scol = !col and sline = !line in
      let hex = c = '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') in
      if hex then advance 2;
      while
        !i < n
        && (let c = src.[!i] in
            (c >= '0' && c <= '9')
            || (hex && ((c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F'))))
      do
        advance 1
      done;
      let text = String.sub src start (!i - start) in
      match int_of_string_opt text with
      | Some v when v >= 0 -> out := { tok = INT v; line = sline; col = scol } :: !out
      | _ -> err ~line:sline ~col:scol "bad integer literal %S" text
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "<<" | ">>" | "==" | "!=" | "<=" | ">=" | "<s" ->
        emit (OP two);
        advance 2
      | _ -> (
        match c with
        | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '<' | '>' ->
          emit (OP (String.make 1 c));
          advance 1
        | '(' | ')' | '{' | '}' | '[' | ']' | ';' | ',' | '=' ->
          emit (PUNCT (String.make 1 c));
          advance 1
        | _ -> err ~line:!line ~col:!col "unexpected character %C" c)
    end
  done;
  out := { tok = EOF; line = !line; col = !col } :: !out;
  Array.of_list (List.rev !out)

(* ---- parser ---- *)

type parser_state = { toks : lexed array; mutable pos : int }

let cur p = p.toks.(p.pos)
let tok p = (cur p).tok

let perr p fmt =
  let ({ line; col; _ } : lexed) = cur p in
  err ~line ~col fmt

let advance p = if p.pos < Array.length p.toks - 1 then p.pos <- p.pos + 1

let token_name = function
  | INT v -> Printf.sprintf "integer %d" v
  | IDENT s -> Printf.sprintf "identifier %S" s
  | KW s -> Printf.sprintf "keyword %S" s
  | PUNCT s | OP s -> Printf.sprintf "%S" s
  | PRAGMA s -> Printf.sprintf "pragma \"//@ %s\"" s
  | EOF -> "end of input"

let expect_punct p s =
  match tok p with
  | PUNCT x when x = s -> advance p
  | t -> perr p "expected %S, found %s" s (token_name t)

(* expression builtins: name, arity, constructor *)
let expr_builtin name args =
  match (name, args) with
  | "read_word", [] -> Some Zirc.Read_word
  | "input_avail", [] -> Some Zirc.Input_avail
  | "cmp8", [ a; b ] -> Some (Zirc.Cmp8 (a, b))
  | "entry_stride", [] -> Some (Zirc.Int Zirc.entry_stride)
  | _ -> None

let rec parse_expr p = parse_cmp p

and parse_cmp p =
  let lhs = parse_bitor p in
  match tok p with
  | OP (("==" | "!=" | "<" | "<=" | ">" | ">=" | "<s") as o) ->
    advance p;
    let rhs = parse_bitor p in
    let op =
      match o with
      | "==" -> Zirc.Eq
      | "!=" -> Zirc.Neq
      | "<" -> Zirc.Lt
      | "<=" -> Zirc.Le
      | ">" -> Zirc.Gt
      | ">=" -> Zirc.Ge
      | _ -> Zirc.Slt
    in
    Zirc.Bin (op, lhs, rhs)
  | _ -> lhs

and parse_bitor p = parse_left p [ ("|", Zirc.Or) ] parse_bitxor
and parse_bitxor p = parse_left p [ ("^", Zirc.Xor) ] parse_bitand
and parse_bitand p = parse_left p [ ("&", Zirc.And) ] parse_shift
and parse_shift p = parse_left p [ ("<<", Zirc.Shl); (">>", Zirc.Shr) ] parse_add
and parse_add p = parse_left p [ ("+", Zirc.Add); ("-", Zirc.Sub) ] parse_mul
and parse_mul p =
  parse_left p [ ("*", Zirc.Mul); ("/", Zirc.Divu); ("%", Zirc.Remu) ] parse_primary

and parse_left p table next =
  let lhs = ref (next p) in
  let continue = ref true in
  while !continue do
    match tok p with
    | OP o when List.mem_assoc o table ->
      advance p;
      let rhs = next p in
      lhs := Zirc.Bin (List.assoc o table, !lhs, rhs)
    | _ -> continue := false
  done;
  !lhs

and parse_args p =
  expect_punct p "(";
  let rec go acc =
    match tok p with
    | PUNCT ")" ->
      advance p;
      List.rev acc
    | _ ->
      let e = parse_expr p in
      (match tok p with
       | PUNCT "," ->
         advance p;
         go (e :: acc)
       | PUNCT ")" ->
         advance p;
         List.rev (e :: acc)
       | _ -> perr p "expected \",\" or \")\" in argument list")
  in
  go []

and parse_primary p =
  match tok p with
  | INT v ->
    advance p;
    Zirc.Int v
  | KW "mem" ->
    advance p;
    expect_punct p "[";
    let e = parse_expr p in
    expect_punct p "]";
    Zirc.Load e
  | PUNCT "(" ->
    advance p;
    let e = parse_expr p in
    expect_punct p ")";
    e
  | IDENT name when (p.toks.(p.pos + 1)).tok = PUNCT "(" -> (
    advance p;
    let args = parse_args p in
    match expr_builtin name args with
    | Some e -> e
    | None -> perr p "unknown function %S (or wrong arity) in expression" name)
  | IDENT name ->
    advance p;
    Zirc.Var name
  | t -> perr p "expected expression, found %s" (token_name t)

let stmt_builtin p name args =
  match (name, args) with
  | "commit", [ e ] -> Zirc.Commit e
  | "debug", [ e ] -> Zirc.Debug e
  | "halt", [ e ] -> Zirc.Halt e
  | "sha", [ src; words; dst ] -> Zirc.Sha { src; words; dst }
  | "read_words", [ dst; count ] -> Zirc.Read_words { dst; count }
  | "commit_words", [ src; count ] -> Zirc.Commit_words { src; count }
  | "read_entries", [ dst; count ] -> Zirc.Read_entries { dst; count }
  | "leaf_hashes", [ entries; count; out ] -> Zirc.Leaf_hashes { entries; count; out }
  | "merkle_root", [ leaves; count ] -> Zirc.Merkle_root { leaves; count }
  | _ -> perr p "unknown statement %S (or wrong arity)" name

(* Every statement parser also returns its source position (and those
   of nested blocks) so lint findings can point at the offending
   token; [parse] discards them, [parse_positioned] keeps them. *)
let rec parse_stmt p =
  match tok p with
  | PRAGMA "trusted" ->
    advance p;
    let s, sp = parse_stmt p in
    (s, { sp with trusted = true })
  | PRAGMA other -> perr p "unknown pragma \"//@ %s\" (supported: trusted)" other
  | _ -> parse_plain_stmt p

and parse_plain_stmt p =
  let ({ line; col; _ } : lexed) = cur p in
  let mk sub = { pos = { line; col }; trusted = false; sub } in
  match tok p with
  | KW "let" ->
    advance p;
    let name =
      match tok p with
      | IDENT n ->
        advance p;
        n
      | t -> perr p "expected variable name after let, found %s" (token_name t)
    in
    expect_punct p "=";
    let e = parse_expr p in
    expect_punct p ";";
    (Zirc.Let (name, e), mk [])
  | KW "mem" ->
    advance p;
    expect_punct p "[";
    let addr = parse_expr p in
    expect_punct p "]";
    expect_punct p "=";
    let v = parse_expr p in
    expect_punct p ";";
    (Zirc.Store (addr, v), mk [])
  | KW "if" ->
    advance p;
    let cond = parse_expr p in
    let then_b, then_p = parse_block p in
    let else_b, else_p =
      match tok p with
      | KW "else" ->
        advance p;
        parse_block p
      | _ -> ([], [])
    in
    (Zirc.If (cond, then_b, else_b), mk [ then_p; else_p ])
  | KW "while" ->
    advance p;
    let cond = parse_expr p in
    let body, body_p = parse_block p in
    (Zirc.While (cond, body), mk [ body_p ])
  | IDENT name when (p.toks.(p.pos + 1)).tok = PUNCT "(" ->
    advance p;
    let args = parse_args p in
    let s = stmt_builtin p name args in
    expect_punct p ";";
    (s, mk [])
  | IDENT name ->
    advance p;
    expect_punct p "=";
    let e = parse_expr p in
    expect_punct p ";";
    (Zirc.Set (name, e), mk [])
  | t -> perr p "expected statement, found %s" (token_name t)

and parse_block p =
  expect_punct p "{";
  let rec go acc pacc =
    match tok p with
    | PUNCT "}" ->
      advance p;
      (List.rev acc, List.rev pacc)
    | EOF -> perr p "unterminated block"
    | _ ->
      let s, sp = parse_stmt p in
      go (s :: acc) (sp :: pacc)
  in
  go [] []

let parse_positioned src =
  match
    let p = { toks = lex src; pos = 0 } in
    let rec go acc =
      match tok p with
      | EOF -> List.rev acc
      | _ ->
        let sp = parse_stmt p in
        go (sp :: acc)
    in
    go []
  with
  | pairs -> Ok (List.map fst pairs, List.map snd pairs)
  | exception Error msg -> Error ("zirc parse: " ^ msg)

let parse src = Result.map fst (parse_positioned src)

let read_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | src -> Ok src
  | exception Sys_error msg -> Error msg

let parse_file path = Result.bind (read_file path) parse

let parse_file_positioned path = Result.bind (read_file path) parse_positioned
