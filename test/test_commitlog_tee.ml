module Gen = Zkflow_netflow.Gen
module Record = Zkflow_netflow.Record
open Zkflow_commitlog

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rng () = Zkflow_util.Rng.create 123L
let batch ?(router_id = 0) n = Gen.records (rng ()) Gen.default_profile ~router_id ~count:n

(* ---- Commitment ---- *)

let test_commitment_matches () =
  let records = batch 10 in
  let c, _ =
    Commitment.of_batch ~prev_chain:Zkflow_hash.Chain.genesis ~router_id:0 ~epoch:0 records
  in
  check_bool "matches original" true (Commitment.matches c records)

let test_commitment_detects_edit () =
  let records = batch 10 in
  let c, _ =
    Commitment.of_batch ~prev_chain:Zkflow_hash.Chain.genesis ~router_id:0 ~epoch:0 records
  in
  let tampered = Array.copy records in
  tampered.(3) <-
    Record.make ~key:tampered.(3).Record.key
      { tampered.(3).Record.metrics with Record.losses = 0 };
  check_bool "edit detected" false (Commitment.matches c tampered)

let test_commitment_detects_truncation () =
  let records = batch 10 in
  let c, _ =
    Commitment.of_batch ~prev_chain:Zkflow_hash.Chain.genesis ~router_id:0 ~epoch:0 records
  in
  check_bool "truncation detected" false (Commitment.matches c (Array.sub records 0 9))

let test_commitment_chain_binds_order () =
  let b1 = batch 3 in
  let b2 =
    Gen.records (Zkflow_util.Rng.create 456L) Gen.default_profile ~router_id:0 ~count:3
  in
  let _, chain_a =
    Commitment.of_batch ~prev_chain:Zkflow_hash.Chain.genesis ~router_id:0 ~epoch:0 b1
  in
  let ca2, _ = Commitment.of_batch ~prev_chain:chain_a ~router_id:0 ~epoch:1 b2 in
  let _, chain_b =
    Commitment.of_batch ~prev_chain:Zkflow_hash.Chain.genesis ~router_id:0 ~epoch:0 b2
  in
  let cb2, _ = Commitment.of_batch ~prev_chain:chain_b ~router_id:0 ~epoch:1 b1 in
  check_bool "different histories, different heads" false
    (Zkflow_hash.Digest32.equal ca2.Commitment.chain cb2.Commitment.chain)

(* ---- Board ---- *)

let test_board_publish_lookup () =
  let board = Board.create () in
  let records = batch 5 in
  (match Board.publish board records ~router_id:2 ~epoch:0 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  match Board.lookup board ~router_id:2 ~epoch:0 with
  | Some c -> check_bool "matches" true (Commitment.matches c records)
  | None -> Alcotest.fail "lookup failed"

let test_board_rejects_rewrite () =
  let board = Board.create () in
  ignore (Board.publish board (batch 5) ~router_id:0 ~epoch:0);
  check_bool "double publish rejected" true
    (Result.is_error (Board.publish board (batch 5) ~router_id:0 ~epoch:0));
  check_bool "past epoch rejected" true
    (Result.is_error (Board.publish board (batch 5) ~router_id:0 ~epoch:0))

let test_board_epoch_monotonic () =
  let board = Board.create () in
  ignore (Board.publish board (batch 1) ~router_id:0 ~epoch:5);
  check_bool "older epoch rejected" true
    (Result.is_error (Board.publish board (batch 1) ~router_id:0 ~epoch:3));
  check_bool "newer epoch ok" true
    (Result.is_ok (Board.publish board (batch 1) ~router_id:0 ~epoch:6))

let test_board_chains_per_router () =
  let board = Board.create () in
  ignore (Board.publish board (batch 1) ~router_id:0 ~epoch:0);
  let head0 = Board.chain_head board ~router_id:0 in
  ignore (Board.publish board (batch 1) ~router_id:1 ~epoch:0);
  check_bool "router 0 unaffected" true
    (Zkflow_hash.Digest32.equal head0 (Board.chain_head board ~router_id:0));
  ignore (Board.publish board (batch 1) ~router_id:0 ~epoch:1);
  check_bool "router 0 advanced" false
    (Zkflow_hash.Digest32.equal head0 (Board.chain_head board ~router_id:0));
  Alcotest.(check (list int)) "routers" [ 0; 1 ] (Board.routers board);
  check_int "router 0 history" 2 (List.length (Board.commitments board ~router_id:0))

(* ---- Board export/replay round-trip (property) ---- *)

(* Arbitrary publication schedules: raw (router, epoch, count) triples
   are normalized into the valid subsequence a real deployment would
   produce (strictly increasing epochs per router), published via
   digests, exported, and replayed through [import] (which drives
   [publish_digest]). The replayed board must be observationally equal
   — same export text, same chain heads — and the publications the
   normalization dropped must be exactly the ones the board rejects. *)
let normalize_schedule triples =
  let last = Hashtbl.create 8 in
  List.filter
    (fun (router_id, epoch, _) ->
      match Hashtbl.find_opt last router_id with
      | Some prev when epoch <= prev -> false
      | _ ->
        Hashtbl.replace last router_id epoch;
        true)
    triples

let schedule_digest ~router_id ~epoch =
  Zkflow_hash.Digest32.hash_string (Printf.sprintf "pub-%d-%d" router_id epoch)

let publish_schedule board =
  List.iter (fun (router_id, epoch, record_count) ->
      match
        Board.publish_digest board
          ~batch:(schedule_digest ~router_id ~epoch)
          ~record_count ~router_id ~epoch
      with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("valid publication rejected: " ^ e))

let prop_board_export_roundtrip =
  QCheck.Test.make ~name:"export/import replay is observationally equal" ~count:100
    QCheck.(
      list_of_size Gen.(0 -- 25)
        (triple (int_bound 3) (int_bound 30) (int_bound 100)))
    (fun triples ->
      let valid = normalize_schedule triples in
      let board = Board.create () in
      publish_schedule board valid;
      let text = Board.export board in
      match Board.import text with
      | Error e -> QCheck.Test.fail_reportf "replay failed: %s" e
      | Ok replayed ->
        Board.export replayed = text
        && List.for_all
             (fun router_id ->
               Zkflow_hash.Digest32.equal
                 (Board.chain_head board ~router_id)
                 (Board.chain_head replayed ~router_id))
             (Board.routers board))

let prop_board_rejects_invalid =
  QCheck.Test.make ~name:"double and out-of-order publications rejected" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 15)
           (triple (int_bound 3) (int_bound 30) (int_bound 100)))
        (pair (int_bound 3) (int_bound 30)))
    (fun (triples, (router_id, epoch)) ->
      let valid = normalize_schedule triples in
      let board = Board.create () in
      publish_schedule board valid;
      let republish ep =
        Board.publish_digest board
          ~batch:(schedule_digest ~router_id ~epoch:ep)
          ~record_count:1 ~router_id ~epoch:ep
      in
      match
        List.rev (List.filter (fun (r, _, _) -> r = router_id) valid)
      with
      | [] ->
        (* No history for this router: any epoch is acceptable. *)
        Result.is_ok (republish epoch)
      | (_, last, _) :: _ ->
        (* Double publication of the last epoch and any out-of-order
           (non-advancing) epoch are both rejected; the next epoch is
           accepted. *)
        Result.is_error (republish last)
        && Result.is_error (republish (min last epoch))
        && Result.is_ok (republish (last + 1)))

(* ---- TEE ---- *)

open Zkflow_tee

let platform = Enclave.platform ~seed:(Bytes.of_string "tee-test-platform")

let test_enclave_attestation_roundtrip () =
  let e = Enclave.launch platform ~code_id:"telemetry-v1" ~init:0 in
  let report = Enclave.attest e ~data:(Bytes.of_string "payload") in
  check_bool "verifies" true
    (Enclave.verify_report
       ~attestation_key:(Enclave.attestation_key platform)
       ~expected_measurement:(Enclave.measurement e)
       report)

let test_enclave_attestation_rejects () =
  let e = Enclave.launch platform ~code_id:"telemetry-v1" ~init:0 in
  let report = Enclave.attest e ~data:(Bytes.of_string "payload") in
  let key = Enclave.attestation_key platform in
  (* wrong code identity *)
  let other = Enclave.launch platform ~code_id:"evil-v1" ~init:0 in
  check_bool "wrong measurement" false
    (Enclave.verify_report ~attestation_key:key
       ~expected_measurement:(Enclave.measurement other) report);
  (* tampered payload *)
  let tampered = { report with Enclave.data = Bytes.of_string "Payload" } in
  check_bool "tampered data" false
    (Enclave.verify_report ~attestation_key:key
       ~expected_measurement:(Enclave.measurement e) tampered);
  (* wrong platform *)
  let rogue = Enclave.platform ~seed:(Bytes.of_string "rogue") in
  check_bool "wrong platform key" false
    (Enclave.verify_report
       ~attestation_key:(Enclave.attestation_key rogue)
       ~expected_measurement:(Enclave.measurement e) report)

let test_enclave_state_isolated () =
  let e = Enclave.launch platform ~code_id:"counter" ~init:10 in
  let out = Enclave.run e (fun s -> (s + 5, s)) in
  check_int "saw old state" 10 out;
  check_int "state updated" 15 (Enclave.run e (fun s -> (s, s)))

let test_tee_telemetry_end_to_end () =
  let t = Tee_telemetry.deploy platform ~router_ids:[ 0; 1; 2; 3 ] ~code_id:"nf-v1" in
  check_int "one enclave per vantage point" 4 (Tee_telemetry.enclave_count t);
  let records = batch ~router_id:1 5 in
  Array.iter (fun r -> Result.get_ok (Tee_telemetry.ingest t r)) records;
  let key = records.(0).Record.key in
  match Tee_telemetry.flow_report t ~router_id:1 key with
  | Error e -> Alcotest.fail e
  | Ok report ->
    check_bool "attested" true
      (Tee_telemetry.verify_report
         ~attestation_key:(Enclave.attestation_key platform)
         ~expected_measurement:(Tee_telemetry.code_measurement t)
         ~router_id:1 ~key report);
    (match Tee_telemetry.decode_report_metrics report.Enclave.data with
     | Ok m ->
       check_int "packets" records.(0).Record.metrics.Record.packets m.Record.packets
     | Error e -> Alcotest.fail e)

(* Every enclave shares one measurement and one platform key, so a
   report must name its router and flow: presented for any other pair,
   it is refused. *)
let test_tee_report_binds_subject () =
  let t = Tee_telemetry.deploy platform ~router_ids:[ 0; 1 ] ~code_id:"nf-v1" in
  let records = batch ~router_id:0 5 in
  Array.iter (fun r -> Result.get_ok (Tee_telemetry.ingest t r)) records;
  let a = records.(0).Record.key and b = records.(1).Record.key in
  let verify ~router_id ~key report =
    Tee_telemetry.verify_report
      ~attestation_key:(Enclave.attestation_key platform)
      ~expected_measurement:(Tee_telemetry.code_measurement t)
      ~router_id ~key report
  in
  let report = Result.get_ok (Tee_telemetry.flow_report t ~router_id:0 a) in
  check_bool "own router and flow" true (verify ~router_id:0 ~key:a report);
  check_bool "another flow" false (verify ~router_id:0 ~key:b report);
  check_bool "another router" false (verify ~router_id:1 ~key:a report);
  (* router 1 never saw flow a: its report verifies only as router 1's *)
  let unseen = Result.get_ok (Tee_telemetry.flow_report t ~router_id:1 a) in
  check_bool "unseen flow, its own router" true (verify ~router_id:1 ~key:a unseen);
  check_bool "unseen flow as router 0's" false (verify ~router_id:0 ~key:a unseen)

let test_tee_coverage_gap () =
  let t = Tee_telemetry.deploy platform ~router_ids:[ 0 ] ~code_id:"nf-v1" in
  let stray = (batch ~router_id:7 1).(0) in
  check_bool "uncovered vantage point" true (Result.is_error (Tee_telemetry.ingest t stray));
  check_bool "report for uncovered" true
    (Result.is_error (Tee_telemetry.flow_report t ~router_id:7 stray.Record.key))

let () =
  Alcotest.run "zkflow_commitlog_tee"
    [
      ( "commitment",
        [
          Alcotest.test_case "matches" `Quick test_commitment_matches;
          Alcotest.test_case "detects edit" `Quick test_commitment_detects_edit;
          Alcotest.test_case "detects truncation" `Quick test_commitment_detects_truncation;
          Alcotest.test_case "chain binds order" `Quick test_commitment_chain_binds_order;
        ] );
      ( "board",
        [
          Alcotest.test_case "publish/lookup" `Quick test_board_publish_lookup;
          Alcotest.test_case "rejects rewrite" `Quick test_board_rejects_rewrite;
          Alcotest.test_case "epoch monotonic" `Quick test_board_epoch_monotonic;
          Alcotest.test_case "per-router chains" `Quick test_board_chains_per_router;
          QCheck_alcotest.to_alcotest prop_board_export_roundtrip;
          QCheck_alcotest.to_alcotest prop_board_rejects_invalid;
        ] );
      ( "enclave",
        [
          Alcotest.test_case "attestation roundtrip" `Quick test_enclave_attestation_roundtrip;
          Alcotest.test_case "attestation rejects" `Quick test_enclave_attestation_rejects;
          Alcotest.test_case "state isolated" `Quick test_enclave_state_isolated;
        ] );
      ( "tee-telemetry",
        [
          Alcotest.test_case "end to end" `Quick test_tee_telemetry_end_to_end;
          Alcotest.test_case "coverage gap" `Quick test_tee_coverage_gap;
          Alcotest.test_case "report binds router and flow" `Quick
            test_tee_report_binds_subject;
        ] );
    ]
