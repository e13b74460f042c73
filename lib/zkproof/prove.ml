module Machine = Zkflow_zkvm.Machine
module Program = Zkflow_zkvm.Program
module Trace = Zkflow_zkvm.Trace
module Tree = Zkflow_merkle.Tree
module D = Zkflow_hash.Digest32
module Fp2 = Zkflow_field.Fp2
module Obs = Zkflow_obs

(* One column of the seal: the leaves at [set] and one multiproof's
   helpers for them. *)
let open_column tree leaves set =
  {
    Receipt.leaves = Array.map (Array.get leaves) set;
    helpers = (Zkflow_merkle.Multiproof.prove tree set).Zkflow_merkle.Multiproof.helpers;
  }

(* Phase-1 commitments depend only on the guest image and the traced
   run, not on the proof parameters or the Fiat–Shamir transcript — so
   proving the same run twice (the aggregate/query double-prove of a
   round, chaos re-proves after a kill) can reuse the trees wholesale.
   One slot is enough: rounds prove back-to-back over one run. Keyed on
   physical identity of the trace arrays ([==]) plus the image id, so a
   recomputed-but-equal trace misses rather than risking a stale hit. *)
type commit_memo = {
  memo_image : D.t;
  memo_rows : Trace.row array;
  memo_memlog : Trace.mem_entry array;
  row_leaves : bytes array;
  rows_tree : Tree.t;
  time_leaves : bytes array;
  time_tree : Tree.t;
  perm : int array;
  sorted_leaves : bytes array;
  sorted_tree : Tree.t;
  jacc_leaves : bytes array;
  jacc_tree : Tree.t;
}

let commit_cache : commit_memo option Atomic.t = Atomic.make None
let clear_commit_cache () = Atomic.set commit_cache None
let m_hits = Obs.Metric.counter "zkproof.commit_cache.hits"
let m_misses = Obs.Metric.counter "zkproof.commit_cache.misses"
let m_leaf_reused = Obs.Metric.counter "zkproof.leaf_hashes_reused"

let node = Receipt.node

let ( let* ) = Result.bind

let build_commit_memo program (claim : Receipt.claim) rows memlog =
  (* The order check comes first, so a refused log costs no hashing. *)
  let* perm =
    Result.map_error (fun e -> "prove: " ^ e) (Memcheck.sort_perm memlog)
  in
  let map_leaves f a = Zkflow_parallel.Pool.map_array ~min_chunk:2048 f a in
  let row_leaves = map_leaves Trace.encode_row rows in
  let rows_tree = Tree.of_leaves ~node row_leaves in
  let time_leaves = map_leaves Trace.encode_mem memlog in
  let time_tree = Tree.of_leaves ~node time_leaves in
  (* The sorted log is a permutation of the time-ordered one, so its
     leaf bytes and leaf digests are the permuted time-ordered ones —
     no second encode or hash pass over the access log. *)
  let sorted_leaves = Array.map (fun i -> time_leaves.(i)) perm in
  let sorted_tree = Tree.permute ~node time_tree perm in
  Obs.Metric.add m_leaf_reused (Array.length perm);
  (* The accumulator moves only on commit rows: rows that leave the
     chain as it was share its head's leaf bytes, and the tree copies
     their slots instead of hashing them. *)
  let jacc_leaves =
    let chain = ref Zkflow_hash.Chain.genesis and leaf = ref None in
    Array.map
      (fun row ->
        let next = Checker.jacc_step ~program !chain row in
        match !leaf with
        | Some b when next == !chain -> b
        | _ ->
          let b = D.to_bytes (Zkflow_hash.Chain.head next) in
          chain := next;
          leaf := Some b;
          b)
      rows
  in
  let jacc_tree = Tree.of_leaves ~node jacc_leaves in
  Ok
    {
      memo_image = claim.Receipt.image_id;
      memo_rows = rows;
      memo_memlog = memlog;
      row_leaves;
      rows_tree;
      time_leaves;
      time_tree;
      perm;
      sorted_leaves;
      sorted_tree;
      jacc_leaves;
      jacc_tree;
    }

let prove_result ?(params = Params.default) program (run : Machine.result) =
  if Array.length run.Machine.rows = 0 then
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
    let n_rows = Array.length rows and n_mem = Array.length memlog in
    let t_prove = Obs.Span.start () in
    (* Phase 1 commitments — memoised across prove calls over the same
       run (see [commit_memo] above). *)
    let t_commit = Obs.Span.start () in
    let* memo, cached =
      match Atomic.get commit_cache with
      | Some m
        when m.memo_rows == rows && m.memo_memlog == memlog
             && D.equal m.memo_image claim.Receipt.image_id ->
        Obs.Metric.add m_hits 1;
        Ok (m, 1)
      | _ ->
        Obs.Metric.add m_misses 1;
        let* m = build_commit_memo program claim rows memlog in
        Atomic.set commit_cache (Some m);
        Ok (m, 0)
    in
    let {
      row_leaves;
      rows_tree;
      time_leaves;
      time_tree;
      perm;
      sorted_leaves;
      sorted_tree;
      jacc_leaves;
      jacc_tree;
      _;
    } =
      memo
    in
    if t_commit <> 0 then
      Obs.Span.finish "zkproof.trace_commit"
        ~args:[ ("rows", n_rows); ("mem", n_mem); ("cached", cached) ]
        t_commit;
    (* Phase 2 (inside the transcript callback so ordering is right):
       both grand-product columns in one tree, leaf j holding both
       values at j. Its span, [zkproof.memcheck_commit], nests inside
       [zkproof.fs], so a trace tells it from Fiat–Shamir proper. *)
    let z_commit = ref None in
    let commit_z ~alpha ~beta =
      let t_memcheck = Obs.Span.start () in
      let leaves = Memcheck.z_leaves ~alpha ~beta memlog perm in
      let tree = Tree.of_leaves ~node leaves in
      z_commit := Some (tree, leaves);
      if t_memcheck <> 0 then Obs.Span.finish "zkproof.memcheck_commit" t_memcheck;
      Tree.root tree
    in
    let t_fs = Obs.Span.start () in
    let challenges, root_z =
      Fs.derive ~claim ~queries:params.Params.queries ~n_rows ~n_mem
        ~root_rows:(Tree.root rows_tree) ~root_time:(Tree.root time_tree)
        ~root_sorted:(Tree.root sorted_tree) ~root_jacc:(Tree.root jacc_tree)
        ~commit_z
    in
    if t_fs <> 0 then Obs.Span.finish "zkproof.fs" t_fs;
    let z_tree, z_leaves = Option.get !z_commit in
    (* Openings: the index sets the verifier will derive, one
       multiproof per root. *)
    let t_open = Obs.Span.start () in
    let spans =
      Array.map
        (fun i -> (rows.(i).Trace.mem_pos, rows.(i).Trace.mem_count))
        challenges.Fs.step_idx
    in
    let opened = Fs.opened ~n_rows ~n_mem ~spans challenges in
    let rows_col = open_column rows_tree row_leaves opened.Fs.rows in
    let jacc = open_column jacc_tree jacc_leaves opened.Fs.rows in
    let time = open_column time_tree time_leaves opened.Fs.time in
    let sorted = open_column sorted_tree sorted_leaves opened.Fs.sorted in
    let z = open_column z_tree z_leaves opened.Fs.z in
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
            rows = rows_col;
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
