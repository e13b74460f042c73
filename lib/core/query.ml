module D = Zkflow_hash.Digest32
module Machine = Zkflow_zkvm.Machine
module Record = Zkflow_netflow.Record
module Flowkey = Zkflow_netflow.Flowkey

type result_row = {
  receipt : Zkflow_zkproof.Receipt.t;
  journal : Guests.query_journal;
  cycles : int;
  execute_s : float;
  prove_s : float;
}

let ( let* ) = Result.bind
let mask32 = 0xffffffff

let metric_value (m : Record.metrics) = function
  | Guests.Packets -> m.Record.packets
  | Guests.Bytes -> m.Record.bytes
  | Guests.Hops -> m.Record.hop_count
  | Guests.Losses -> m.Record.losses

let entry_matches (p : Guests.predicate) (e : Clog.entry) =
  let w = Clog.entry_words e in
  let ok field idx = match field with None -> true | Some v -> w.(idx) = v in
  ok p.Guests.src_ip 0 && ok p.Guests.dst_ip 1 && ok p.Guests.ports 2
  && ok p.Guests.proto 3

let reference clog (params : Guests.query_params) =
  let init = match params.Guests.op with Guests.Min -> mask32 | _ -> 0 in
  Array.fold_left
    (fun (acc, matches) e ->
      if entry_matches params.Guests.predicate e then begin
        let v = metric_value e.Clog.metrics params.Guests.metric in
        let acc =
          match params.Guests.op with
          | Guests.Sum -> (acc + v) land mask32
          | Guests.Count -> acc + 1
          | Guests.Max -> max acc v
          | Guests.Min -> min acc v
        in
        (acc, matches + 1)
      end
      else (acc, matches))
    (init, 0) (Clog.entries clog)

let guest_failure = function
  | 1 -> "query guest: Merkle root mismatch"
  | 5 -> "query guest: malformed parameters"
  | n -> Printf.sprintf "query guest: unexpected exit code %d" n

let execute ~clog params =
  let input = Guests.query_input ~clog params in
  let program = Lazy.force Guests.query_program in
  match Machine.run ~trace:true program ~input with
  | exception Machine.Trap { reason; cycle; pc } ->
    Error (Printf.sprintf "query guest trapped at cycle %d pc %d: %s" cycle pc reason)
  | run when run.Machine.exit_code <> 0 -> Error (guest_failure run.Machine.exit_code)
  | run -> Ok run

let now () = Unix.gettimeofday ()

(* Correlation ids for query events: monotone per process, threaded by
   callers into the verifier so a rejected query verdict can be joined
   back to the proving attempt in the flight-recorder log. *)
let query_counter = Atomic.make 0
let fresh_query_id () = Atomic.fetch_and_add query_counter 1

let prove_inner ?params:proof_params ~clog params =
  let t_q = Zkflow_obs.Span.start () in
  let t0 = now () in
  let* run = execute ~clog params in
  let t1 = now () in
  let program = Lazy.force Guests.query_program in
  let* receipt = Zkflow_zkproof.Prove.prove_result ?params:proof_params program run in
  let t2 = now () in
  if t_q <> 0 then
    Zkflow_obs.Span.finish "query.prove" ~args:[ ("cycles", run.Machine.cycles) ] t_q;
  let* journal = Guests.parse_query_journal run.Machine.journal in
  let* () =
    if D.equal journal.Guests.root (Clog.root clog) then Ok ()
    else Error "query: journal root diverges from host state"
  in
  let* () =
    if Guests.params_equal journal.Guests.params params then Ok ()
    else Error "query: journal params diverge"
  in
  let expected_result, expected_matches = reference clog params in
  let* () =
    if journal.Guests.result = expected_result && journal.Guests.matches = expected_matches
    then Ok ()
    else Error "query: guest result diverges from host reference"
  in
  Ok
    {
      receipt;
      journal;
      cycles = run.Machine.cycles;
      execute_s = t1 -. t0;
      prove_s = t2 -. t1;
    }

let prove ?params ~clog query_params =
  let qid = fresh_query_id () in
  match prove_inner ?params ~clog query_params with
  | Error e ->
    Zkflow_obs.Event.emit ~query:qid ~track:"prover" "prover.query.error"
      ~attrs:[ ("detail", Zkflow_util.Jsonx.Str e) ];
    Error e
  | Ok row ->
    Zkflow_obs.Event.emit ~query:qid ~track:"prover" "prover.query.done"
      ~attrs:
        [
          ("cycles", Zkflow_util.Jsonx.Num (float_of_int row.cycles));
          ("result", Zkflow_util.Jsonx.Num (float_of_int row.journal.Guests.result));
          ("matches", Zkflow_util.Jsonx.Num (float_of_int row.journal.Guests.matches));
        ];
    Ok row

(* ---- batched multi-flow queries ---- *)

type flow_row = { index : int; entry : Clog.entry; value : int }

type flows_result = {
  root : D.t;
  metric : Guests.metric;
  rows : flow_row list;
  total : int;
  proof : Zkflow_merkle.Multiproof.t;
}

(* The index and entry of each key, in index order. *)
let locate clog keys =
  let rec collect acc = function
    | [] -> Ok acc
    | key :: rest -> (
      match Clog.find clog key with
      | Some found -> collect (found :: acc) rest
      | None -> Error (Format.asprintf "query flows: flow %a not in the CLog" Flowkey.pp key))
  in
  if keys = [] then Error "query flows: no keys given"
  else
    let* found = collect [] keys in
    let sorted = List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) found in
    if List.compare_lengths sorted found = 0 then Ok sorted
    else Error "query flows: duplicate keys"

let prove_flows ~clog ~metric keys =
  let* sorted = locate clog keys in
  (* One multiproof over the merged index set: helper digests shared
     between flows are carried once, instead of one full root path per
     flow. *)
  let proof =
    Zkflow_merkle.Multiproof.prove (Clog.tree clog) (Array.of_list (List.map fst sorted))
  in
  let rows =
    List.map
      (fun (i, e) -> { index = i; entry = e; value = metric_value e.Clog.metrics metric })
      sorted
  in
  let total = List.fold_left (fun acc r -> (acc + r.value) land mask32) 0 rows in
  Ok { root = Clog.root clog; metric; rows; total; proof }

let sum_hops_between ~src ~dst =
  {
    Guests.predicate = { Guests.match_any with Guests.src_ip = Some src; dst_ip = Some dst };
    op = Guests.Sum;
    metric = Guests.Hops;
  }

let loss_of_flow key =
  let w = Flowkey.to_words key in
  {
    Guests.predicate =
      { Guests.src_ip = Some w.(0); dst_ip = Some w.(1); ports = Some w.(2); proto = Some w.(3) };
    op = Guests.Sum;
    metric = Guests.Losses;
  }

let flow_count =
  { Guests.predicate = Guests.match_any; op = Guests.Count; metric = Guests.Packets }
