(* Retrospective incident forensics: historical verifiable queries.

   A customer reports degraded service "sometime this afternoon". Every
   aggregation round's CLog root stays pinned by its receipt, so an
   auditor can query ANY past state — not just the latest — and verify
   each answer against that round's root. Here we localize a loss spike
   to the integrity window where it happened, purely from attested
   scalars.

   Run: dune exec examples/incident_forensics.exe *)

module Record = Zkflow_netflow.Record
module Gen = Zkflow_netflow.Gen
module Db = Zkflow_store.Db
open Zkflow_core

let params = Zkflow_zkproof.Params.make ~queries:16

(* Three 5-second windows; window 1 contains the incident (a spike in
   drops at the vantage point). *)
let load_window db ~epoch ~loss_permille =
  let rng = Zkflow_util.Rng.create (Int64.of_int (500 + epoch)) in
  let records = Gen.records rng Gen.default_profile ~router_id:0 ~count:6 in
  Array.iter
    (fun r ->
      let packets = r.Record.metrics.Record.packets in
      Db.insert db
        (Record.make ~key:r.Record.key ~first_ts:(epoch * 5000)
           ~last_ts:((epoch * 5000) + 4000) ~router_id:0
           { r.Record.metrics with Record.losses = packets * loss_permille / 1000 }))
    records

let () =
  print_endline "Incident forensics over historical verifiable telemetry";
  let d = Zkflow.deploy ~proof_params:params () in
  load_window d.Zkflow.db ~epoch:0 ~loss_permille:3;
  load_window d.Zkflow.db ~epoch:1 ~loss_permille:60;  (* the incident *)
  load_window d.Zkflow.db ~epoch:2 ~loss_permille:4;
  let rounds =
    List.map
      (fun epoch ->
        ignore (Result.get_ok (Prover_service.publish_epoch d.Zkflow.service ~epoch));
        let r =
          match Prover_service.aggregate_available d.Zkflow.service ~epoch with
          | Ok (Prover_service.Complete r) -> r
          | Ok _ -> failwith "a window went uncovered"
          | Error e -> failwith e
        in
        Printf.printf "window %d aggregated and proved (%d flows total)\n" epoch
          (Clog.length r.Aggregate.clog);
        r)
      [ 0; 1; 2 ]
  in
  (* Auditor: verify the whole chain once... *)
  (match
     Verifier_client.verify_chain ~board:d.Zkflow.board
       (List.mapi (fun i r -> (i, r.Aggregate.receipt)) rounds)
   with
   | Ok c -> Printf.printf "auditor: %d-round chain verified\n" c.Verifier_client.round_count
   | Error e -> failwith e);
  (* ...then walk history with per-round attested loss totals. The CLog
     is cumulative, so the per-window delta isolates each epoch. *)
  let q = { Guests.predicate = Guests.match_any; op = Guests.Sum; metric = Guests.Losses } in
  let attested_total round_idx =
    let row = Result.get_ok (Prover_service.query_at d.Zkflow.service ~round:round_idx q) in
    let root = (List.nth rounds round_idx).Aggregate.journal.Guests.new_root in
    match Verifier_client.verify_query ~expected_root:root row.Query.receipt with
    | Ok j -> j.Guests.result
    | Error e -> failwith ("auditor: " ^ e)
  in
  let totals = List.map attested_total [ 0; 1; 2 ] in
  let deltas =
    List.mapi
      (fun i total -> if i = 0 then total else total - List.nth totals (i - 1))
      totals
  in
  List.iteri
    (fun i delta ->
      Printf.printf "auditor: window %d attested loss delta = %d%s\n" i delta
        (if delta > 3 * (List.nth deltas 0 + 1) && i > 0 then "   <-- incident window"
         else ""))
    deltas;
  print_endline "auditor: incident localized without seeing one flow record."
