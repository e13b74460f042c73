(* End-to-end pipeline tests: service + board + client, and the
   adversarial scenarios of Section 5 / Figure 3. *)

module D = Zkflow_hash.Digest32
module Record = Zkflow_netflow.Record
module Gen = Zkflow_netflow.Gen
module Db = Zkflow_store.Db
module Board = Zkflow_commitlog.Board
open Zkflow_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let digest = Alcotest.testable D.pp D.equal
let params = Zkflow_zkproof.Params.make ~queries:8

(* One epoch's round through the one round entry point, which must
   cover every window of the epoch. *)
let aggregate service ~epoch =
  match Prover_service.aggregate_available service ~epoch with
  | Ok (Prover_service.Complete round) -> Ok round
  | Ok _ -> Error (Printf.sprintf "epoch %d: a window went uncovered" epoch)
  | Error e -> Error e

let deployment () = Zkflow.deploy ~proof_params:params ()

let load_epoch db ~epoch ~routers ~per_router ~seed =
  for r = 0 to routers - 1 do
    let records =
      Gen.records
        (Zkflow_util.Rng.create (Int64.of_int (seed + (1000 * r) + epoch)))
        Gen.default_profile ~router_id:r ~count:per_router
    in
    Array.iter
      (fun rc ->
        Db.insert db
          (Record.make ~key:rc.Record.key ~first_ts:(epoch * 5000)
             ~last_ts:((epoch * 5000) + 100) ~router_id:r rc.Record.metrics))
      records
  done

let test_service_single_epoch () =
  let d = deployment () in
  load_epoch d.Zkflow.db ~epoch:0 ~routers:4 ~per_router:3 ~seed:1;
  (match Prover_service.publish_epoch d.Zkflow.service ~epoch:0 with
   | Ok r ->
     check_int "4 commitments" 4 (List.length r.Prover_service.published);
     check_int "none skipped" 0 (List.length r.Prover_service.skipped)
   | Error e -> Alcotest.fail e);
  match aggregate d.Zkflow.service ~epoch:0 with
  | Error e -> Alcotest.fail e
  | Ok round ->
    check_int "12 flows" 12 (Clog.length round.Aggregate.clog);
    Alcotest.check digest "service state"
      (Clog.root round.Aggregate.clog)
      (Prover_service.latest_root d.Zkflow.service)

let test_service_multi_epoch_chain () =
  let d = deployment () in
  load_epoch d.Zkflow.db ~epoch:0 ~routers:2 ~per_router:3 ~seed:2;
  load_epoch d.Zkflow.db ~epoch:1 ~routers:2 ~per_router:3 ~seed:3;
  let run epoch =
    match Prover_service.publish_epoch d.Zkflow.service ~epoch with
    | Error e -> Alcotest.fail e
    | Ok _ -> (
      match aggregate d.Zkflow.service ~epoch with
      | Error e -> Alcotest.fail e
      | Ok r -> r)
  in
  let r0 = run 0 in
  let r1 = run 1 in
  Alcotest.check digest "rounds chain"
    r0.Aggregate.journal.Guests.new_root r1.Aggregate.journal.Guests.prev_root;
  check_int "history" 2 (List.length (Prover_service.rounds d.Zkflow.service))

let test_service_requires_published_commitments () =
  let d = deployment () in
  load_epoch d.Zkflow.db ~epoch:0 ~routers:2 ~per_router:2 ~seed:4;
  match Prover_service.aggregate_available d.Zkflow.service ~epoch:0 with
  | Ok (Prover_service.Skipped gaps) ->
    Alcotest.(check (list (pair int int)))
      "every unpublished window named" [ (0, 0); (1, 0) ]
      (List.map (fun (g : Prover_service.gap) -> (g.router_id, g.epoch)) gaps);
    check_int "no round" 0 (List.length (Prover_service.rounds d.Zkflow.service))
  | Ok _ -> Alcotest.fail "aggregated without published commitments"
  | Error e -> Alcotest.fail e

let test_client_verifies_full_chain () =
  let d = deployment () in
  load_epoch d.Zkflow.db ~epoch:0 ~routers:2 ~per_router:3 ~seed:5;
  load_epoch d.Zkflow.db ~epoch:1 ~routers:2 ~per_router:3 ~seed:6;
  let rounds =
    List.map
      (fun epoch ->
        ignore (Result.get_ok (Prover_service.publish_epoch d.Zkflow.service ~epoch));
        match aggregate d.Zkflow.service ~epoch with
        | Ok r -> (epoch, r.Aggregate.receipt)
        | Error e -> Alcotest.fail e)
      [ 0; 1 ]
  in
  match Verifier_client.verify_chain ~board:d.Zkflow.board rounds with
  | Error e -> Alcotest.fail e
  | Ok chain ->
    check_int "2 rounds" 2 chain.Verifier_client.round_count;
    Alcotest.check digest "final root"
      (Prover_service.latest_root d.Zkflow.service)
      chain.Verifier_client.final_root

let test_client_query_roundtrip () =
  let d = deployment () in
  load_epoch d.Zkflow.db ~epoch:0 ~routers:2 ~per_router:4 ~seed:7;
  ignore (Result.get_ok (Prover_service.publish_epoch d.Zkflow.service ~epoch:0));
  let round = Result.get_ok (aggregate d.Zkflow.service ~epoch:0) in
  match Prover_service.query d.Zkflow.service Query.flow_count with
  | Error e -> Alcotest.fail e
  | Ok row -> (
    match
      Verifier_client.verify_query
        ~expected_root:round.Aggregate.journal.Guests.new_root row.Query.receipt
    with
    | Error e -> Alcotest.fail e
    | Ok j -> check_int "count = clog size" (Clog.length round.Aggregate.clog) j.Guests.result)

let test_client_rejects_unpublished_router () =
  (* A round whose guest consumed a digest that was never on the board:
     simulate by verifying against a different board. *)
  let d = deployment () in
  load_epoch d.Zkflow.db ~epoch:0 ~routers:2 ~per_router:2 ~seed:8;
  ignore (Result.get_ok (Prover_service.publish_epoch d.Zkflow.service ~epoch:0));
  let round = Result.get_ok (aggregate d.Zkflow.service ~epoch:0) in
  let empty_board = Board.create () in
  match
    Verifier_client.verify_round ~board:empty_board ~epoch:0 round.Aggregate.receipt
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted digests absent from the board"

let test_client_sla_predicate () =
  let d = deployment () in
  load_epoch d.Zkflow.db ~epoch:0 ~routers:2 ~per_router:4 ~seed:9;
  ignore (Result.get_ok (Prover_service.publish_epoch d.Zkflow.service ~epoch:0));
  let round = Result.get_ok (aggregate d.Zkflow.service ~epoch:0) in
  let q =
    { Guests.predicate = Guests.match_any; op = Guests.Sum; metric = Guests.Losses }
  in
  let row = Result.get_ok (Prover_service.query d.Zkflow.service q) in
  match
    Verifier_client.check_sla
      ~expected_root:round.Aggregate.journal.Guests.new_root row.Query.receipt
      ~predicate:(fun ~result ~matches -> matches > 0 && result >= 0)
  with
  | Ok verdict -> check_bool "sla evaluated" true verdict
  | Error e -> Alcotest.fail e

let test_client_historical_query () =
  let d = deployment () in
  load_epoch d.Zkflow.db ~epoch:0 ~routers:2 ~per_router:3 ~seed:20;
  load_epoch d.Zkflow.db ~epoch:1 ~routers:2 ~per_router:3 ~seed:21;
  let rounds =
    List.map
      (fun epoch ->
        ignore (Result.get_ok (Prover_service.publish_epoch d.Zkflow.service ~epoch));
        Result.get_ok (aggregate d.Zkflow.service ~epoch))
      [ 0; 1 ]
  in
  let round0 = List.nth rounds 0 in
  (* query against the historical (round 0) state *)
  match Prover_service.query_at d.Zkflow.service ~round:0 Query.flow_count with
  | Error e -> Alcotest.fail e
  | Ok row -> (
    match
      Verifier_client.verify_query
        ~expected_root:round0.Aggregate.journal.Guests.new_root row.Query.receipt
    with
    | Error e -> Alcotest.fail e
    | Ok j ->
      check_int "round-0 flow count" (Clog.length round0.Aggregate.clog) j.Guests.result;
      (* and it must NOT verify against the latest root *)
      check_bool "stale vs latest rejected" true
        (Result.is_error
           (Verifier_client.verify_query
              ~expected_root:(Prover_service.latest_root d.Zkflow.service)
              row.Query.receipt));
      check_bool "missing round" true
        (Result.is_error
           (Prover_service.query_at d.Zkflow.service ~round:9 Query.flow_count));
      check_bool "negative round" true
        (Result.is_error
           (Prover_service.query_at d.Zkflow.service ~round:(-1) Query.flow_count)))

let test_service_restore_resume () =
  let path = Filename.temp_file "zkflow_pipeline" ".wal" in
  Sys.remove path;
  let d = deployment () in
  Prover_service.with_checkpoints d.Zkflow.service ~path;
  load_epoch d.Zkflow.db ~epoch:0 ~routers:2 ~per_router:3 ~seed:30;
  load_epoch d.Zkflow.db ~epoch:1 ~routers:2 ~per_router:3 ~seed:31;
  ignore (Result.get_ok (Prover_service.publish_epoch d.Zkflow.service ~epoch:0));
  ignore (Result.get_ok (aggregate d.Zkflow.service ~epoch:0));
  (* a read-only restore sees the journal as it is *)
  (match Prover_service.restore ~db:d.Zkflow.db ~board:d.Zkflow.board ~path () with
   | Error e -> Alcotest.fail e
   | Ok seen ->
     Alcotest.check digest "restore sees the state"
       (Prover_service.latest_root d.Zkflow.service)
       (Prover_service.latest_root seen));
  (* "restart": a fresh service resumes from the journal and continues
     with epoch 1, chaining from the restored root *)
  match
    Prover_service.resume ~proof_params:params ~db:d.Zkflow.db ~board:d.Zkflow.board
      ~path ()
  with
  | Error e -> Alcotest.fail e
  | Ok (restored, n) ->
    check_int "one round resumed" 1 n;
    Alcotest.check digest "state restored"
      (Prover_service.latest_root d.Zkflow.service)
      (Prover_service.latest_root restored);
    check_int "history restored" 1 (List.length (Prover_service.rounds restored));
    ignore (Result.get_ok (Prover_service.publish_epoch restored ~epoch:1));
    ignore (Result.get_ok (aggregate restored ~epoch:1));
    (* the whole chain (resumed round + new round) verifies *)
    let receipts =
      List.mapi (fun i r -> (i, r.Aggregate.receipt)) (Prover_service.rounds restored)
    in
    (match Verifier_client.verify_chain ~board:d.Zkflow.board receipts with
     | Ok chain -> check_int "2 rounds verified" 2 chain.Verifier_client.round_count
     | Error e -> Alcotest.fail e);
    (* a journal of garbage is refused *)
    Out_channel.with_open_bin path (fun oc -> output_string oc "not a journal");
    check_bool "garbage rejected" true
      (Result.is_error
         (Prover_service.restore ~db:d.Zkflow.db ~board:d.Zkflow.board ~path ()));
    Sys.remove path

(* A selective disclosure is a flows readout over the chosen keys:
   the verified rows carry the committed entries, and any field of an
   entry is authenticated, including one the readout does not report. *)
let test_selective_disclosure () =
  let d = deployment () in
  load_epoch d.Zkflow.db ~epoch:0 ~routers:2 ~per_router:5 ~seed:40;
  ignore (Result.get_ok (Prover_service.publish_epoch d.Zkflow.service ~epoch:0));
  let round = Result.get_ok (aggregate d.Zkflow.service ~epoch:0) in
  let root = round.Aggregate.journal.Guests.new_root in
  let entries = Clog.entries round.Aggregate.clog in
  let keys = [ entries.(1).Clog.key; entries.(7).Clog.key ] in
  let disclose keys =
    Query.prove_flows ~clog:(Prover_service.clog d.Zkflow.service) ~metric:Guests.Packets
      keys
  in
  match disclose keys with
  | Error e -> Alcotest.fail e
  | Ok disclosure -> (
    match Verifier_client.verify_flows ~expected_root:root disclosure with
    | Error e -> Alcotest.fail e
    | Ok verified ->
      check_int "two entries" 2 (List.length verified);
      check_bool "right flows" true
        (List.for_all
           (fun (r : Query.flow_row) ->
             List.exists (Zkflow_netflow.Flowkey.equal r.Query.entry.Clog.key) keys)
           verified);
      (* doctored metric rejected: losses changed under a packets readout *)
      let forged =
        List.map
          (fun (r : Query.flow_row) ->
            let e = r.Query.entry in
            let m = e.Clog.metrics in
            { r with Query.entry = { e with Clog.metrics = { m with Record.losses = m.Record.losses + 1 } } })
          disclosure.Query.rows
      in
      check_bool "forged entries rejected" true
        (Result.is_error
           (Verifier_client.verify_flows ~expected_root:root
              { disclosure with Query.rows = forged }));
      (* unknown flow refused *)
      let ghost =
        (Gen.records (Zkflow_util.Rng.create 999L) Gen.default_profile ~router_id:9
           ~count:1).(0)
          .Record.key
      in
      check_bool "absent flow refused" true (Result.is_error (disclose [ ghost ]));
      let k = List.hd keys in
      check_bool "repeated flow refused" true (Result.is_error (disclose [ k; k ])))

let test_query_flows_batched () =
  let d = deployment () in
  load_epoch d.Zkflow.db ~epoch:0 ~routers:2 ~per_router:6 ~seed:41;
  ignore (Result.get_ok (Prover_service.publish_epoch d.Zkflow.service ~epoch:0));
  let round = Result.get_ok (aggregate d.Zkflow.service ~epoch:0) in
  let root = round.Aggregate.journal.Guests.new_root in
  let entries = Clog.entries round.Aggregate.clog in
  let keys = [ entries.(0).Clog.key; entries.(3).Clog.key; entries.(5).Clog.key ] in
  let prove_flows keys =
    Query.prove_flows ~clog:(Prover_service.clog d.Zkflow.service) ~metric:Guests.Packets
      keys
  in
  match prove_flows keys with
  | Error e -> Alcotest.fail e
  | Ok flows -> (
    Alcotest.check digest "answered against the round root" root flows.Query.root;
    check_int "three rows" 3 (List.length flows.Query.rows);
    match Verifier_client.verify_flows ~expected_root:root flows with
    | Error e -> Alcotest.fail e
    | Ok rows ->
      List.iter
        (fun (r : Query.flow_row) ->
          check_int
            (Printf.sprintf "value of row %d" r.Query.index)
            r.Query.entry.Clog.metrics.Record.packets r.Query.value)
        rows;
      (* tampered value rejected: bump one row's value and total *)
      let forged_rows =
        List.map
          (fun (r : Query.flow_row) ->
            if r.Query.index = (List.hd rows).Query.index then
              { r with Query.value = r.Query.value + 1 }
            else r)
          flows.Query.rows
      in
      check_bool "forged value rejected" true
        (Result.is_error
           (Verifier_client.verify_flows ~expected_root:root
              { flows with Query.rows = forged_rows; total = flows.Query.total + 1 }));
      (* wrong total alone rejected *)
      check_bool "forged total rejected" true
        (Result.is_error
           (Verifier_client.verify_flows ~expected_root:root
              { flows with Query.total = flows.Query.total + 1 }));
      (* a different root does not authenticate *)
      check_bool "wrong root rejected" true
        (Result.is_error
           (Verifier_client.verify_flows ~expected_root:Clog.empty_root flows));
      (* duplicate and absent keys refused at proving time *)
      check_bool "duplicate keys refused" true
        (Result.is_error (prove_flows [ entries.(0).Clog.key; entries.(0).Clog.key ]));
      let ghost =
        (Gen.records (Zkflow_util.Rng.create 998L) Gen.default_profile ~router_id:9
           ~count:1).(0)
          .Record.key
      in
      check_bool "absent key refused" true (Result.is_error (prove_flows [ ghost ]));
      check_bool "empty keys refused" true (Result.is_error (prove_flows [])))

(* ---- simulate_and_prove (the quickstart path) ---- *)

let test_simulation_end_to_end () =
  match Zkflow.simulate_and_prove ~routers:3 ~flows:10 ~rate_pps:100.0 ~duration_ms:2000 () with
  | Error e -> Alcotest.fail e
  | Ok sim ->
    check_bool "made packets" true (sim.Zkflow.packets > 50);
    check_bool "made records" true (sim.Zkflow.records > 0);
    check_bool "proved rounds" true (List.length sim.Zkflow.rounds >= 1);
    (match Zkflow.verify_simulation sim with
     | Ok chain ->
       check_int "all rounds verified" (List.length sim.Zkflow.rounds)
         chain.Verifier_client.round_count
     | Error e -> Alcotest.fail e)

(* ---- tamper scenarios ---- *)

let test_all_tampering_detected () =
  List.iter
    (fun o ->
      check_bool
        (Printf.sprintf "%s detected" o.Tamper.scenario)
        true o.Tamper.detected)
    (Tamper.all ())

let () =
  Alcotest.run "zkflow_pipeline"
    [
      ( "service",
        [
          Alcotest.test_case "single epoch" `Quick test_service_single_epoch;
          Alcotest.test_case "multi-epoch chain" `Quick test_service_multi_epoch_chain;
          Alcotest.test_case "requires published commitments" `Quick
            test_service_requires_published_commitments;
        ] );
      ( "client",
        [
          Alcotest.test_case "verifies full chain" `Quick test_client_verifies_full_chain;
          Alcotest.test_case "query roundtrip" `Quick test_client_query_roundtrip;
          Alcotest.test_case "rejects unpublished router" `Quick
            test_client_rejects_unpublished_router;
          Alcotest.test_case "sla predicate" `Quick test_client_sla_predicate;
          Alcotest.test_case "historical query" `Quick test_client_historical_query;
          Alcotest.test_case "restore/resume" `Quick test_service_restore_resume;
          Alcotest.test_case "selective disclosure" `Quick test_selective_disclosure;
          Alcotest.test_case "batched flows query" `Quick test_query_flows_batched;
        ] );
      ( "simulation",
        [ Alcotest.test_case "end to end" `Slow test_simulation_end_to_end ] );
      ( "tamper",
        [ Alcotest.test_case "all scenarios detected" `Slow test_all_tampering_detected ] );
    ]
