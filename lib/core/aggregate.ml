module D = Zkflow_hash.Digest32
module Machine = Zkflow_zkvm.Machine
module Prove = Zkflow_zkproof.Prove
module Receipt = Zkflow_zkproof.Receipt
module Tree = Zkflow_merkle.Tree
module Obs = Zkflow_obs

type round = {
  receipt : Receipt.t;
  journal : Guests.agg_journal;
  clog : Clog.t;
  cycles : int;
  execute_s : float;
  prove_s : float;
  restored : bool;
}

let ( let* ) = Result.bind

let guest_failure code =
  match code with
  | 1 -> "aggregation guest: previous Merkle root mismatch"
  | 2 -> "aggregation guest: router commitment mismatch (tampered or wrong RLogs)"
  | 3 -> "aggregation guest: CLog capacity exceeded"
  | 4 -> "aggregation guest: duplicate key in previous CLog"
  | n -> Printf.sprintf "aggregation guest: unexpected exit code %d" n

let execute ~prev batches =
  let t0 = Obs.Span.start () in
  let finish r =
    if t0 <> 0 then Obs.Span.finish "agg.execute" t0;
    r
  in
  let input = Guests.aggregation_input ~prev ~batches in
  let program = Lazy.force Guests.aggregation_program in
  finish @@
  match Machine.run ~trace:true program ~input with
  | exception Machine.Trap { reason; cycle; pc } ->
    Error (Printf.sprintf "aggregation guest trapped at cycle %d pc %d: %s" cycle pc reason)
  | run when run.Machine.exit_code <> 0 -> Error (guest_failure run.Machine.exit_code)
  | run -> Ok run

(* The guest must agree with the host reference on every output; a
   divergence is a correctness bug in one of the two, so fail loudly. *)
let cross_check ~prev ~batches (journal : Guests.agg_journal) =
  let expected =
    Clog.apply_batch prev (Array.concat (List.map snd batches))
  in
  let* () =
    if D.equal journal.Guests.prev_root (Clog.root prev) then Ok ()
    else Error "aggregation: journal prev_root diverges from host state"
  in
  let* () =
    if journal.Guests.entry_count = Clog.length expected then Ok ()
    else Error "aggregation: guest entry count diverges from host reference"
  in
  let* () =
    if D.equal journal.Guests.new_root (Clog.root expected) then Ok ()
    else Error "aggregation: guest Merkle root diverges from host reference"
  in
  (* The host tree already holds every entry's leaf digest. *)
  let tree = Clog.tree expected in
  let host_leaves = Array.init (Tree.size tree) (Tree.leaf tree) in
  let* () =
    if
      Array.length host_leaves = Array.length journal.Guests.leaf_digests
      && Array.for_all2 D.equal host_leaves journal.Guests.leaf_digests
    then Ok ()
    else Error "aggregation: guest leaf digests diverge from host reference"
  in
  Ok expected

let now () = Unix.gettimeofday ()

let prove_round ?params ~prev batches =
  let t_round = Obs.Span.start () in
  let t0 = now () in
  let* run = execute ~prev batches in
  let t1 = now () in
  let program = Lazy.force Guests.aggregation_program in
  let t_prove = Obs.Span.start () in
  let* receipt = Prove.prove_result ?params program run in
  if t_prove <> 0 then Obs.Span.finish "agg.prove" ~args:[ ("cycles", run.Machine.cycles) ] t_prove;
  let t2 = now () in
  let t_check = Obs.Span.start () in
  let* journal = Guests.parse_aggregation_journal run.Machine.journal in
  let* clog = cross_check ~prev ~batches journal in
  if t_check <> 0 then Obs.Span.finish "agg.check" t_check;
  if t_round <> 0 then Obs.Span.finish "agg.round" t_round;
  Ok
    {
      receipt;
      journal;
      clog;
      cycles = run.Machine.cycles;
      execute_s = t1 -. t0;
      prove_s = t2 -. t1;
      restored = false;
    }

let shard_records ~shards records =
  if shards <= 0 then invalid_arg "Aggregate.shard_records: shards";
  let groups = Array.make shards [] in
  Array.iter
    (fun (r : Zkflow_netflow.Record.t) ->
      let h =
        Bytes.get_int64_le
          (D.unsafe_to_bytes (Zkflow_netflow.Flowkey.hash r.Zkflow_netflow.Record.key))
          0
      in
      let s = Int64.to_int h land max_int mod shards in
      groups.(s) <- r :: groups.(s))
    records;
  Array.map (fun l -> Array.of_list (List.rev l)) groups

let prove_sharded ?params ~prev_shards ~shards records =
  if Array.length prev_shards <> shards then
    invalid_arg "Aggregate.prove_sharded: prev_shards arity";
  let groups = shard_records ~shards records in
  (* Shards share no state, so they prove concurrently on the Domain
     pool. Force the shared lazies first: concurrent first-forcing of
     a lazy is not domain-safe in OCaml 5. *)
  ignore (Lazy.force Guests.aggregation_program);
  Array.iter (fun prev -> ignore (Clog.root prev)) prev_shards;
  let results =
    Zkflow_parallel.Pool.init_array ~min_chunk:1 shards (fun i ->
        let batch = groups.(i) in
        let digest = Zkflow_netflow.Export.batch_hash batch in
        prove_round ?params ~prev:prev_shards.(i) [ (digest, batch) ])
  in
  (* Keep shard order in the output; on failure report the lowest
     failing shard, as the sequential loop did. *)
  let rec collect i acc =
    if i = shards then Ok (Array.of_list (List.rev acc))
    else
      match results.(i) with
      | Ok round -> collect (i + 1) (round :: acc)
      | Error e -> Error e
  in
  collect 0 []
