module Clog = Clog
module Guests = Guests
module Aggregate = Aggregate
module Query = Query
module Prover_service = Prover_service
module Verifier_client = Verifier_client
module Tamper = Tamper
module Db = Zkflow_store.Db
module Epoch = Zkflow_store.Epoch
module Board = Zkflow_commitlog.Board
module Gen = Zkflow_netflow.Gen
module Topology = Zkflow_netflow.Topology
module Router = Zkflow_netflow.Router

type deployment = { db : Db.t; board : Board.t; service : Prover_service.t }

let deploy ?proof_params ?(epoch_interval_ms = 5000) () =
  let db = Db.create ~epoch:(Epoch.make ~interval_ms:epoch_interval_ms) () in
  let board = Board.create () in
  let service = Prover_service.create ?proof_params ~db ~board () in
  { db; board; service }

type simulation = {
  deployment : deployment;
  rounds : (int * Aggregate.round) list;
  packets : int;
  records : int;
}

let ( let* ) = Result.bind

let simulate_traffic ~seed ~routers ~flows ~rate_pps ~duration_ms ~loss_rate db =
  let rng = Zkflow_util.Rng.create seed in
  let profile = { Gen.default_profile with Gen.flow_count = flows } in
  let flow_keys = Gen.flows rng profile in
  let packets = Gen.packets rng profile ~flows:flow_keys ~rate_pps ~duration_ms in
  let topology =
    Topology.linear
      (List.init routers (fun id ->
           { Router.id; active_timeout_ms = 60_000; inactive_timeout_ms = 30_000; sampling_interval = 1 }))
  in
  let losses = Array.make routers loss_rate in
  List.iter (Topology.inject topology ~rng ~loss_rate:losses) packets;
  (* End of run: force-export everything, stamped into the last epoch. *)
  let records = ref 0 in
  List.iter
    (fun (_, recs) ->
      List.iter
        (fun r ->
          incr records;
          Db.insert db r)
        recs)
    (Topology.flush topology ~now:duration_ms);
  (List.length packets, !records)

let simulate_and_prove ?(seed = 42L) ?(routers = 4) ?(flows = 30)
    ?(rate_pps = 200.0) ?(duration_ms = 4000) ?(loss_rate = 0.02) () =
  if routers <= 0 then invalid_arg "simulate_and_prove: routers";
  (* Fast proving defaults for a quickstart-sized run. *)
  let deployment =
    deploy ~proof_params:(Zkflow_zkproof.Params.make ~queries:16) ()
  in
  let packets, records =
    simulate_traffic ~seed ~routers ~flows ~rate_pps ~duration_ms ~loss_rate
      deployment.db
  in
  (* Publish and prove every epoch that has data, each round covering
     every router's window. *)
  let rec run_epochs acc = function
    | [] -> Ok (List.rev acc)
    | epoch :: rest -> (
      let* _ = Prover_service.publish_epoch deployment.service ~epoch in
      let* outcome = Prover_service.aggregate_available deployment.service ~epoch in
      match outcome with
      | Prover_service.Complete round -> run_epochs ((epoch, round) :: acc) rest
      | Prover_service.Degraded _ | Prover_service.Skipped _ ->
        Error (Printf.sprintf "simulate_and_prove: epoch %d: a window went uncovered" epoch))
  in
  let* rounds = run_epochs [] (Db.epochs deployment.db) in
  Ok { deployment; rounds; packets; records }

let verify_simulation sim =
  Verifier_client.verify_chain ~board:sim.deployment.board
    (List.map (fun (epoch, round) -> (epoch, round.Aggregate.receipt)) sim.rounds)
