module Machine = Zkflow_zkvm.Machine
module Program = Zkflow_zkvm.Program
module Trace = Zkflow_zkvm.Trace
module Tree = Zkflow_merkle.Tree
module D = Zkflow_hash.Digest32
module Fp2 = Zkflow_field.Fp2
module Obs = Zkflow_obs

module Column = Zkflow_util.Column

(* One column of the seal: the opened leaves, copied out of a flat
   column, and one multiproof's helpers for the index set. *)
let open_column tree set leaves =
  {
    Receipt.leaves;
    helpers = (Zkflow_merkle.Multiproof.prove tree set).Zkflow_merkle.Multiproof.helpers;
  }

(* The phase-1 commitments of one run: the rows, time-ordered log,
   address-sorted log and journal accumulator columns with their
   trees, the two logs packed into leaves by [Logleaf]. *)
type commitments = {
  rows_col : Column.t;
  rows_tree : Tree.t;
  time_col : Column.t;
  time_tree : Tree.t;
  perm : int array;
  sorted_col : Column.t;
  sorted_tree : Tree.t;
  jacc_col : Column.t;
  jacc_tree : Tree.t;
}

let node = Receipt.node

let ( let* ) = Result.bind

(* The journal accumulator's head after each row, 32 bytes per leaf,
   each row's fields read in place. It moves only on commit rows: a
   row that leaves the chain as it was copies the previous leaf's
   bytes, and the tree copies its slot instead of hashing it. *)
let jacc_column ~program rows =
  let col = Column.alloc (Trace.n_rows rows) ~size:(fun _ -> 32) in
  let chain = ref Zkflow_hash.Chain.genesis in
  for i = 0 to Trace.n_rows rows - 1 do
    let next = Checker.jacc_step ~program !chain rows i in
    if i > 0 && next == !chain then Bytes.blit col.data (32 * (i - 1)) col.data (32 * i) 32
    else begin
      Bytes.blit (D.unsafe_to_bytes (Zkflow_hash.Chain.head next)) 0 col.data (32 * i) 32;
      chain := next
    end
  done;
  col

let commit program rows memlog =
  (* The order check comes first, so a refused log costs no hashing. *)
  let* perm =
    Result.map_error (fun e -> "prove: " ^ e) (Memcheck.sort_perm memlog)
  in
  let t_encode = Obs.Span.start () in
  let rows_col = Trace.encode_rows rows in
  let entries = Trace.encode_log memlog in
  (* The sorted log's leaves hold the time-ordered log's encoded
     entries in [perm] order: no second encode. *)
  let time_col = Logleaf.pack entries and sorted_col = Logleaf.gather entries perm in
  if t_encode <> 0 then Obs.Span.finish "zkproof.encode" t_encode;
  let rows_tree = Tree.of_leaves ~node rows_col in
  let time_tree = Tree.of_leaves ~node time_col in
  let sorted_tree = Tree.of_leaves ~node sorted_col in
  let t_jacc = Obs.Span.start () in
  let jacc_col = jacc_column ~program rows in
  if t_jacc <> 0 then Obs.Span.finish "zkproof.jacc" t_jacc;
  let jacc_tree = Tree.of_leaves ~node jacc_col in
  Ok
    {
      rows_col;
      rows_tree;
      time_col;
      time_tree;
      perm;
      sorted_col;
      sorted_tree;
      jacc_col;
      jacc_tree;
    }

let prove_result ?(params = Params.default) program (run : Machine.result) =
  if Trace.n_rows run.Machine.rows = 0 then
    Error "prove: run has no trace (execute with ~trace:true)"
  else if run.Machine.exit_code <> 0 then
    Error
      (Printf.sprintf
         "prove: guest exited with code %d (in-guest integrity check failed); refusing to attest"
         run.Machine.exit_code)
  else begin
    let claim =
      {
        Receipt.image_id = Program.image_id program;
        exit_code = run.Machine.exit_code;
        journal = run.Machine.journal;
      }
    in
    let rows = run.Machine.rows and memlog = run.Machine.memlog in
    let n_rows = Trace.n_rows rows and n_mem = Trace.n_entries memlog in
    let t_prove = Obs.Span.start () in
    (* Phase 1 commitments. *)
    let t_commit = Obs.Span.start () in
    let* { rows_col; rows_tree; time_col; time_tree; perm; sorted_col; sorted_tree; jacc_col;
           jacc_tree } =
      commit program rows memlog
    in
    if t_commit <> 0 then
      Obs.Span.finish "zkproof.trace_commit" ~args:[ ("rows", n_rows); ("mem", n_mem) ] t_commit;
    (* Phase 2 (inside the transcript callback so ordering is right):
       both grand-product columns in one tree, entry j holding both
       values at j, packed into leaves as the logs are. Its span,
       [zkproof.memcheck_commit], nests inside [zkproof.fs], so a trace
       tells it from Fiat–Shamir proper. *)
    let z_commit = ref None in
    let commit_z ~alpha ~beta =
      let t_memcheck = Obs.Span.start () in
      let col = Logleaf.pack (Memcheck.z_leaves ~alpha ~beta memlog perm) in
      let tree = Tree.of_leaves ~node col in
      z_commit := Some (tree, col);
      if t_memcheck <> 0 then Obs.Span.finish "zkproof.memcheck_commit" t_memcheck;
      Tree.root tree
    in
    let t_fs = Obs.Span.start () in
    let challenges, root_z =
      Fs.derive ~claim ~journal:(Receipt.journal_digest claim) ~queries:params.Params.queries
        ~n_rows ~n_mem
        ~root_rows:(Tree.root rows_tree) ~root_time:(Tree.root time_tree)
        ~root_sorted:(Tree.root sorted_tree) ~root_jacc:(Tree.root jacc_tree)
        ~commit_z
    in
    if t_fs <> 0 then Obs.Span.finish "zkproof.fs" t_fs;
    let z_tree, z_col = Option.get !z_commit in
    (* Openings: the index sets the verifier will derive, one
       multiproof per root. *)
    let t_open = Obs.Span.start () in
    let spans =
      Array.map (fun i -> (Trace.mem_pos rows i, Trace.mem_count rows i)) challenges.Fs.step_idx
    in
    let opened = Fs.opened ~n_rows ~n_mem ~spans challenges in
    let column tree col set = open_column tree set (Column.pick col set) in
    let log tree col entries = column tree col (Logleaf.leaf_set entries) in
    let rows_opened = column rows_tree rows_col opened.Fs.rows in
    let jacc = column jacc_tree jacc_col opened.Fs.rows in
    let time = log time_tree time_col opened.Fs.time in
    let sorted = log sorted_tree sorted_col opened.Fs.sorted in
    let z = log z_tree z_col opened.Fs.z in
    if t_open <> 0 then Obs.Span.finish "zkproof.openings" t_open;
    if t_prove <> 0 then
      Obs.Span.finish "zkproof.prove" ~args:[ ("rows", n_rows) ] t_prove;
    Ok
      {
        Receipt.claim;
        seal =
          {
            Receipt.params;
            n_rows;
            n_mem;
            root_rows = Tree.root rows_tree;
            root_time = Tree.root time_tree;
            root_sorted = Tree.root sorted_tree;
            root_jacc = Tree.root jacc_tree;
            root_z;
            rows = rows_opened;
            jacc;
            time;
            sorted;
            z;
          };
      }
  end

let prove ?params program ~input =
  match Machine.run ~trace:true program ~input with
  | exception Machine.Trap { cycle; pc; reason } ->
    Error (Printf.sprintf "prove: guest trapped at cycle %d pc %d: %s" cycle pc reason)
  | run -> (
    match prove_result ?params program run with
    | Ok receipt -> Ok (receipt, run)
    | Error e -> Error e)
