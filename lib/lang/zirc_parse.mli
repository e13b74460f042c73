(** Concrete syntax for {!Zirc}.

    A small C-like surface, one statement per construct:

    {v
    // count entries above a loss threshold
    let m = read_word();
    read_entries(0x100003, m);
    let i = 0; let hits = 0;
    while i < m {
      let e = 0x100003 + i * entry_stride();
      if mem[e + 7] * 100 > mem[e + 4] {
        hits = hits + 1;
      } else { }
      i = i + 1;
    }
    commit(hits);
    v}

    Integers are decimal or 0x-hex; [//] comments to end of line;
    operators follow C precedence ([*] over [+ -] over shifts over
    [& ^ |] over comparisons; [<s] is the signed less-than). Builtins:
    [read_word()], [input_avail()], [cmp8(a,b)] and the constant
    [entry_stride()] in expressions;
    [commit(e)], [debug(e)], [halt(e)], [sha(src,words,dst)],
    [read_words(dst,n)], [commit_words(src,n)], [read_entries(dst,n)],
    [leaf_hashes(entries,n,out)], [merkle_root(leaves,n)] as
    statements. *)

type pos = { line : int; col : int }

type stmt_pos = { pos : pos; trusted : bool; sub : stmt_pos list list }
(** Source position of one statement plus those of its nested blocks,
    in the same shape as the AST: [If] carries [[then; else]], [While]
    carries [[body]], leaf statements carry [[]]. [trusted] is set when
    the statement is annotated with a [//@ trusted] pragma on the
    preceding line — the taint pass suppresses untrusted-input findings
    inside such a statement (and counts every use). *)

val parse : string -> (Zirc.program, string) result
(** Parse a full program. Errors carry line/column. *)

val parse_positioned : string -> (Zirc.program * stmt_pos list, string) result
(** Like {!parse}, also returning one {!stmt_pos} per top-level
    statement so tooling (the lint) can point findings at source. *)

val parse_file : string -> (Zirc.program, string) result
(** Read and parse a file. *)

val parse_file_positioned : string -> (Zirc.program * stmt_pos list, string) result
