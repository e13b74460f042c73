module D = Zkflow_hash.Digest32
module Record = Zkflow_netflow.Record
module Flowkey = Zkflow_netflow.Flowkey
module Gen = Zkflow_netflow.Gen
module Export = Zkflow_netflow.Export
open Zkflow_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let digest = Alcotest.testable D.pp D.equal
let rng seed = Zkflow_util.Rng.create (Int64.of_int seed)

let batch ?(seed = 1) ?(router_id = 0) n =
  Gen.records (rng seed) Gen.default_profile ~router_id ~count:n

let committed records = (Export.batch_hash records, records)

(* fast proving params for tests *)
let params = Zkflow_zkproof.Params.make ~queries:8

(* ---- Clog ---- *)

let test_clog_empty () =
  check_int "length" 0 (Clog.length Clog.empty);
  Alcotest.check digest "stable empty root" Clog.empty_root (Clog.root Clog.empty)

let test_clog_apply_batch_sums () =
  let records = batch 5 in
  let clog = Clog.apply_batch Clog.empty records in
  check_int "5 flows" 5 (Clog.length clog);
  (* same batch again: same flows, doubled metrics *)
  let clog2 = Clog.apply_batch clog records in
  check_int "still 5 flows" 5 (Clog.length clog2);
  (match Clog.find clog2 records.(0).Record.key with
   | Some (_, e) ->
     check_int "doubled" (2 * records.(0).Record.metrics.Record.packets)
       e.Clog.metrics.Record.packets
   | None -> Alcotest.fail "flow missing")

let test_clog_order_stable_across_rounds () =
  let clog1 = Clog.apply_batch Clog.empty (batch ~seed:1 3) in
  let clog2 = Clog.apply_batch clog1 (batch ~seed:2 3) in
  let e1 = Clog.entries clog1 and e2 = Clog.entries clog2 in
  for i = 0 to 2 do
    check_bool "prefix preserved" true (Flowkey.equal e1.(i).Clog.key e2.(i).Clog.key)
  done

let test_clog_matches_guest_encoding () =
  let records = batch 3 in
  let clog = Clog.apply_batch Clog.empty records in
  Array.iter
    (fun e ->
      check_int "entry is 8 words" 8 (Array.length (Clog.entry_words e));
      match Clog.entry_of_words (Clog.entry_words e) with
      | Ok e' -> check_bool "roundtrip" true (Flowkey.equal e.Clog.key e'.Clog.key)
      | Error msg -> Alcotest.fail msg)
    (Clog.entries clog)

let test_clog_rejects_duplicates () =
  let e = { Clog.key = (batch 1).(0).Record.key; metrics = Record.zero_metrics } in
  check_bool "dup rejected" true (Result.is_error (Clog.of_entries [| e; e |]))

(* ---- Aggregation guest: execution only (fast) ---- *)

let test_agg_execute_matches_reference () =
  let b0 = batch ~seed:1 ~router_id:0 10 and b1 = batch ~seed:2 ~router_id:1 10 in
  let batches = [ committed b0; committed b1 ] in
  match Aggregate.execute ~prev:Clog.empty batches with
  | Error e -> Alcotest.fail e
  | Ok run -> (
    match Guests.parse_aggregation_journal run.Zkflow_zkvm.Machine.journal with
    | Error e -> Alcotest.fail e
    | Ok j ->
      let expected = Clog.apply_batch Clog.empty (Array.append b0 b1) in
      Alcotest.check digest "new root" (Clog.root expected) j.Guests.new_root;
      check_int "entry count" (Clog.length expected) j.Guests.entry_count;
      Alcotest.check digest "prev root" Clog.empty_root j.Guests.prev_root)

let test_agg_execute_overlapping_flows () =
  (* Same flows at two routers: metrics must sum, not duplicate. *)
  let b0 = batch ~seed:7 ~router_id:0 8 in
  let b1 =
    Array.map
      (fun r -> Record.make ~key:r.Record.key ~router_id:1 r.Record.metrics)
      b0
  in
  match Aggregate.execute ~prev:Clog.empty [ committed b0; committed b1 ] with
  | Error e -> Alcotest.fail e
  | Ok run -> (
    match Guests.parse_aggregation_journal run.Zkflow_zkvm.Machine.journal with
    | Error e -> Alcotest.fail e
    | Ok j ->
      check_int "8 flows, not 16" 8 j.Guests.entry_count;
      let expected = Clog.apply_batch Clog.empty (Array.append b0 b1) in
      Alcotest.check digest "root" (Clog.root expected) j.Guests.new_root)

let test_agg_execute_chained_rounds () =
  let b0 = batch ~seed:1 5 in
  let r1 = Clog.apply_batch Clog.empty b0 in
  let b1 = batch ~seed:9 5 in
  match Aggregate.execute ~prev:r1 [ committed b1 ] with
  | Error e -> Alcotest.fail e
  | Ok run -> (
    match Guests.parse_aggregation_journal run.Zkflow_zkvm.Machine.journal with
    | Error e -> Alcotest.fail e
    | Ok j ->
      Alcotest.check digest "prev root links" (Clog.root r1) j.Guests.prev_root;
      let expected = Clog.apply_batch r1 b1 in
      Alcotest.check digest "new root" (Clog.root expected) j.Guests.new_root)

let test_agg_rejects_tampered_batch () =
  let records = batch 6 in
  let claimed = Export.batch_hash records in
  let tampered = Array.copy records in
  tampered.(2) <-
    Record.make ~key:tampered.(2).Record.key
      { tampered.(2).Record.metrics with Record.losses = 0 };
  match Aggregate.execute ~prev:Clog.empty [ (claimed, tampered) ] with
  | Error e ->
    check_bool "mentions commitment" true
      (String.length e > 0 && String.sub e 0 11 = "aggregation")
  | Ok _ -> Alcotest.fail "tampered batch accepted"

let test_agg_rejects_wrong_prev_root () =
  (* Claim a prev state whose root doesn't match the entries. *)
  let clog = Clog.apply_batch Clog.empty (batch 3) in
  let input = Guests.aggregation_input ~prev:clog ~batches:[ committed (batch ~seed:5 2) ] in
  (* corrupt the claimed prev root (words 1..9) *)
  input.(1) <- input.(1) lxor 1;
  let program = Lazy.force Guests.aggregation_program in
  let run = Zkflow_zkvm.Machine.run program ~input in
  check_int "halt 1" 1 run.Zkflow_zkvm.Machine.exit_code

let test_agg_journal_leaf_digests () =
  let b = batch 4 in
  match Aggregate.execute ~prev:Clog.empty [ committed b ] with
  | Error e -> Alcotest.fail e
  | Ok run -> (
    match Guests.parse_aggregation_journal run.Zkflow_zkvm.Machine.journal with
    | Error e -> Alcotest.fail e
    | Ok j ->
      let expected = Clog.apply_batch Clog.empty b in
      let host = Array.map Clog.leaf_digest (Clog.entries expected) in
      check_int "count" (Array.length host) (Array.length j.Guests.leaf_digests);
      Array.iteri
        (fun i _ -> Alcotest.check digest "leaf digest" host.(i) j.Guests.leaf_digests.(i))
        j.Guests.leaf_digests)

let test_agg_empty_round () =
  (* No routers at all: state unchanged, empty root committed. *)
  match Aggregate.execute ~prev:Clog.empty [] with
  | Error e -> Alcotest.fail e
  | Ok run -> (
    match Guests.parse_aggregation_journal run.Zkflow_zkvm.Machine.journal with
    | Error e -> Alcotest.fail e
    | Ok j ->
      check_int "no entries" 0 j.Guests.entry_count;
      Alcotest.check digest "empty root" Clog.empty_root j.Guests.new_root)

(* ---- Aggregation: full prove/verify round ---- *)

let test_agg_prove_round_verifies () =
  let batches = [ committed (batch ~seed:1 6); committed (batch ~seed:2 ~router_id:1 6) ] in
  match Aggregate.prove_round ~params ~prev:Clog.empty batches with
  | Error e -> Alcotest.fail e
  | Ok round ->
    check_bool "receipt verifies" true
      (Zkflow_zkproof.Verify.check
         ~program:(Lazy.force Guests.aggregation_program)
         round.Aggregate.receipt);
    check_int "clog grew" 12 (Clog.length round.Aggregate.clog)

let test_agg_prove_partitioned_equivalent () =
  let batches =
    List.init 4 (fun i -> committed (batch ~seed:(10 + i) ~router_id:i 4))
  in
  let prove prev batches =
    match Aggregate.prove_round ~params ~prev batches with
    | Ok round -> round.Aggregate.clog
    | Error e -> Alcotest.fail e
  in
  (* the same window as two chained rounds of two batches each *)
  let half h = List.filteri (fun i _ -> i / 2 = h) batches in
  Alcotest.check digest "same final root"
    (Clog.root (prove Clog.empty batches))
    (Clog.root (prove (prove Clog.empty (half 0)) (half 1)))

let test_agg_sharded_partition () =
  let records = batch ~seed:77 24 in
  match
    Aggregate.prove_sharded ~params ~prev_shards:(Array.make 3 Clog.empty)
      ~shards:3 records
  with
  | Error e -> Alcotest.fail e
  | Ok rounds ->
    check_int "3 shards" 3 (Array.length rounds);
    let total =
      Array.fold_left (fun acc r -> acc + Clog.length r.Aggregate.clog) 0 rounds
    in
    check_int "no flow lost or duplicated" 24 total;
    (* fan-out query over shards = query over the union *)
    let q = { Guests.predicate = Guests.match_any; op = Guests.Sum; metric = Guests.Losses } in
    let shard_sum =
      Array.fold_left
        (fun acc r -> acc + fst (Query.reference r.Aggregate.clog q))
        0 rounds
    in
    let union = Clog.apply_batch Clog.empty records in
    check_int "fan-out sum" (fst (Query.reference union q)) shard_sum;
    (* a flow's records always land in the same shard *)
    Array.iter
      (fun r ->
        Array.iter
          (fun (e : Clog.entry) ->
            let hits =
              Array.fold_left
                (fun acc r' ->
                  if Option.is_some (Clog.find r'.Aggregate.clog e.Clog.key) then acc + 1
                  else acc)
                0 rounds
            in
            check_int "flow in exactly one shard" 1 hits)
          (Clog.entries r.Aggregate.clog))
      rounds

(* ---- Query guest ---- *)

let sample_clog () =
  let b = batch ~seed:3 10 in
  (Clog.apply_batch Clog.empty b, b)

let test_query_execute_sum_hops () =
  let clog, b = sample_clog () in
  let key = b.(0).Record.key in
  let q =
    Query.sum_hops_between ~src:key.Flowkey.src_ip ~dst:key.Flowkey.dst_ip
  in
  match Query.execute ~clog q with
  | Error e -> Alcotest.fail e
  | Ok run -> (
    match Guests.parse_query_journal run.Zkflow_zkvm.Machine.journal with
    | Error e -> Alcotest.fail e
    | Ok j ->
      let expected, matches = Query.reference clog q in
      check_int "result" expected j.Guests.result;
      check_int "matches" matches j.Guests.matches;
      check_bool "at least one match" true (j.Guests.matches >= 1))

let test_query_ops () =
  let clog, _ = sample_clog () in
  List.iter
    (fun op ->
      let q = { Guests.predicate = Guests.match_any; op; metric = Guests.Packets } in
      match Query.execute ~clog q with
      | Error e -> Alcotest.fail e
      | Ok run -> (
        match Guests.parse_query_journal run.Zkflow_zkvm.Machine.journal with
        | Error e -> Alcotest.fail e
        | Ok j ->
          let expected, _ = Query.reference clog q in
          check_int "guest = host" expected j.Guests.result))
    [ Guests.Sum; Guests.Count; Guests.Max; Guests.Min ]

let test_query_metrics () =
  let clog, _ = sample_clog () in
  List.iter
    (fun metric ->
      let q = { Guests.predicate = Guests.match_any; op = Guests.Sum; metric } in
      match Query.execute ~clog q with
      | Error e -> Alcotest.fail e
      | Ok run -> (
        match Guests.parse_query_journal run.Zkflow_zkvm.Machine.journal with
        | Error e -> Alcotest.fail e
        | Ok j ->
          let expected, _ = Query.reference clog q in
          check_int "guest = host" expected j.Guests.result))
    [ Guests.Packets; Guests.Bytes; Guests.Hops; Guests.Losses ]

let test_query_no_matches () =
  let clog, _ = sample_clog () in
  let q =
    {
      Guests.predicate = { Guests.match_any with Guests.proto = Some 99 };
      op = Guests.Sum;
      metric = Guests.Packets;
    }
  in
  match Query.execute ~clog q with
  | Error e -> Alcotest.fail e
  | Ok run -> (
    match Guests.parse_query_journal run.Zkflow_zkvm.Machine.journal with
    | Error e -> Alcotest.fail e
    | Ok j ->
      check_int "zero result" 0 j.Guests.result;
      check_int "zero matches" 0 j.Guests.matches)

let test_query_exact_flow () =
  let clog, b = sample_clog () in
  let q = Query.loss_of_flow b.(4).Record.key in
  match Query.execute ~clog q with
  | Error e -> Alcotest.fail e
  | Ok run -> (
    match Guests.parse_query_journal run.Zkflow_zkvm.Machine.journal with
    | Error e -> Alcotest.fail e
    | Ok j ->
      check_int "one match" 1 j.Guests.matches;
      check_int "loss value" b.(4).Record.metrics.Record.losses j.Guests.result)

let test_query_rejects_wrong_root () =
  let clog, _ = sample_clog () in
  let q = Query.flow_count in
  let input = Guests.query_input ~clog q in
  input.(3) <- input.(3) lxor 1;
  let program = Lazy.force Guests.query_program in
  let run = Zkflow_zkvm.Machine.run program ~input in
  check_int "halt 1" 1 run.Zkflow_zkvm.Machine.exit_code

let test_query_rejects_bad_params () =
  let clog, _ = sample_clog () in
  let input = Guests.query_input ~clog Query.flow_count in
  (* op word is at position (1 + 8 + 8m + 8) *)
  let m = Clog.length clog in
  input.(1 + 8 + (8 * m) + 8) <- 17;
  let program = Lazy.force Guests.query_program in
  let run = Zkflow_zkvm.Machine.run program ~input in
  check_int "halt 5" 5 run.Zkflow_zkvm.Machine.exit_code

let test_query_prove_verifies () =
  let clog, b = sample_clog () in
  let key = b.(0).Record.key in
  let q = Query.sum_hops_between ~src:key.Flowkey.src_ip ~dst:key.Flowkey.dst_ip in
  match Query.prove ~params ~clog q with
  | Error e -> Alcotest.fail e
  | Ok row ->
    check_bool "receipt verifies" true
      (Zkflow_zkproof.Verify.check
         ~program:(Lazy.force Guests.query_program)
         row.Query.receipt);
    Alcotest.check digest "root in journal" (Clog.root clog) row.Query.journal.Guests.root

let test_query_empty_clog () =
  let q = Query.flow_count in
  match Query.execute ~clog:Clog.empty q with
  | Error e -> Alcotest.fail e
  | Ok run -> (
    match Guests.parse_query_journal run.Zkflow_zkvm.Machine.journal with
    | Error e -> Alcotest.fail e
    | Ok j ->
      check_int "zero" 0 j.Guests.result;
      Alcotest.check digest "empty root" Clog.empty_root j.Guests.root)

(* ---- verifiable sketch ---- *)

let test_vsketch_host_semantics () =
  let s = Vsketch.create () in
  let keys = Array.map (fun r -> r.Record.key) (batch ~seed:42 20) in
  Array.iteri (fun i k -> Vsketch.add s ~count:(10 * (i + 1)) k) keys;
  Array.iteri
    (fun i k ->
      check_bool "never underestimates" true (Vsketch.estimate s k >= 10 * (i + 1)))
    keys;
  (* untouched key estimates small (whp zero with 20 keys in 4x1024) *)
  let ghost = (batch ~seed:4242 1).(0).Record.key in
  check_bool "ghost small" true (Vsketch.estimate s ghost < 50)

let test_vsketch_guest_matches_host () =
  let s = Vsketch.create () in
  let keys = Array.map (fun r -> r.Record.key) (batch ~seed:43 10) in
  Array.iter (fun k -> Vsketch.add s ~count:7 k) keys;
  (* interpreter path: cheap full agreement check for several keys *)
  Array.iter
    (fun k ->
      match
        Zkflow_lang.Zirc.interpret Vsketch.query_program ~input:(Vsketch.query_input s k)
      with
      | Error e -> Alcotest.fail e
      | Ok o ->
        check_int "guest estimate" (Vsketch.estimate s k)
          o.Zkflow_lang.Zirc.journal.(12))
    keys

let test_vsketch_prove_verify () =
  let s = Vsketch.create () in
  let keys = Array.map (fun r -> r.Record.key) (batch ~seed:44 5) in
  Array.iter (fun k -> Vsketch.add s ~count:100 k) keys;
  match Vsketch.prove ~params s keys.(2) with
  | Error e -> Alcotest.fail e
  | Ok (receipt, attested) -> (
    check_int "attested estimate" (Vsketch.estimate s keys.(2)) attested.Vsketch.estimate;
    match Vsketch.verify ~expected_commitment:(Vsketch.commitment s) receipt with
    | Error e -> Alcotest.fail e
    | Ok a ->
      check_bool "key in journal" true (Flowkey.equal a.Vsketch.key keys.(2));
      (* wrong commitment rejected *)
      check_bool "wrong commitment" true
        (Result.is_error
           (Vsketch.verify ~expected_commitment:(D.hash_string "other") receipt)))

let test_vsketch_tamper_detected () =
  let s = Vsketch.create () in
  Array.iter (fun r -> Vsketch.add s r.Record.key) (batch ~seed:45 8);
  let key = (batch ~seed:45 8).(0).Record.key in
  let input = Vsketch.query_input s key in
  (* cheat: zero a cell after committing *)
  input.(8 + 100) <- input.(8 + 100) lxor 0xff;
  match Zkflow_lang.Zirc.compile Vsketch.query_program with
  | Error e -> Alcotest.fail e
  | Ok program ->
    let run = Zkflow_zkvm.Machine.run program ~input in
    check_int "halt 1" 1 run.Zkflow_zkvm.Machine.exit_code

(* ---- Clog batches ---- *)

let test_clog_empty_batch () =
  let c = Clog.apply_batch Clog.empty (batch 5) in
  let c' = Clog.apply_batch c [||] in
  Alcotest.check digest "empty batch keeps root" (Clog.root c) (Clog.root c');
  check_int "length unchanged" (Clog.length c) (Clog.length c')

let test_clog_words_layout () =
  let c = Clog.apply_batch Clog.empty (batch 7) in
  let ws = Clog.words c in
  let entries = Clog.entries c in
  check_int "8 words per entry" (8 * Array.length entries) (Array.length ws);
  Array.iteri
    (fun i e ->
      let ew = Clog.entry_words e in
      for j = 0 to 7 do
        check_int (Printf.sprintf "entry %d word %d" i j) ew.(j) ws.((8 * i) + j)
      done)
    entries

let prop_clog_chained_differential =
  QCheck.Test.make ~name:"apply_batch = rebuild = of_entries over random rounds"
    ~count:40
    QCheck.(pair (int_range 0 9999) (int_range 1 5))
    (fun (seed, rounds) ->
      let r = rng seed in
      let chained = ref Clog.empty and batches = ref [] in
      let ok = ref true in
      for _ = 1 to rounds do
        (* occasional empty batch; otherwise a mixed insert/update one *)
        let n = Zkflow_util.Rng.int r 30 in
        let b = Gen.records r Gen.default_profile ~router_id:0 ~count:n in
        chained := Clog.apply_batch !chained b;
        batches := b :: !batches;
        (* the chained state, one fold of every batch so far, and the
           state rebuilt from its entries share one root *)
        let once = Clog.apply_batch Clog.empty (Array.concat (List.rev !batches)) in
        ok :=
          !ok
          && D.equal (Clog.root once) (Clog.root !chained)
          && D.equal (Clog.root !chained)
               (Clog.root (Result.get_ok (Clog.of_entries (Clog.entries !chained))))
      done;
      !ok)

let () =
  Alcotest.run "zkflow_core"
    [
      ( "clog",
        [
          Alcotest.test_case "empty" `Quick test_clog_empty;
          Alcotest.test_case "apply batch sums" `Quick test_clog_apply_batch_sums;
          Alcotest.test_case "order stable" `Quick test_clog_order_stable_across_rounds;
          Alcotest.test_case "guest encoding" `Quick test_clog_matches_guest_encoding;
          Alcotest.test_case "rejects duplicates" `Quick test_clog_rejects_duplicates;
          Alcotest.test_case "empty batch" `Quick test_clog_empty_batch;
          Alcotest.test_case "words layout" `Quick test_clog_words_layout;
          QCheck_alcotest.to_alcotest prop_clog_chained_differential;
        ] );
      ( "aggregation",
        [
          Alcotest.test_case "matches reference" `Quick test_agg_execute_matches_reference;
          Alcotest.test_case "overlapping flows" `Quick test_agg_execute_overlapping_flows;
          Alcotest.test_case "chained rounds" `Quick test_agg_execute_chained_rounds;
          Alcotest.test_case "rejects tampered batch" `Quick test_agg_rejects_tampered_batch;
          Alcotest.test_case "rejects wrong prev root" `Quick test_agg_rejects_wrong_prev_root;
          Alcotest.test_case "journal leaf digests" `Quick test_agg_journal_leaf_digests;
          Alcotest.test_case "empty round" `Quick test_agg_empty_round;
          Alcotest.test_case "prove round verifies" `Slow test_agg_prove_round_verifies;
          Alcotest.test_case "partitioned equivalent" `Slow test_agg_prove_partitioned_equivalent;
          Alcotest.test_case "sharded partition" `Slow test_agg_sharded_partition;
        ] );
      ( "query",
        [
          Alcotest.test_case "sum hops" `Quick test_query_execute_sum_hops;
          Alcotest.test_case "all ops" `Quick test_query_ops;
          Alcotest.test_case "all metrics" `Quick test_query_metrics;
          Alcotest.test_case "no matches" `Quick test_query_no_matches;
          Alcotest.test_case "exact flow" `Quick test_query_exact_flow;
          Alcotest.test_case "rejects wrong root" `Quick test_query_rejects_wrong_root;
          Alcotest.test_case "rejects bad params" `Quick test_query_rejects_bad_params;
          Alcotest.test_case "prove verifies" `Slow test_query_prove_verifies;
          Alcotest.test_case "empty clog" `Quick test_query_empty_clog;
        ] );
      ( "vsketch",
        [
          Alcotest.test_case "host semantics" `Quick test_vsketch_host_semantics;
          Alcotest.test_case "guest matches host" `Quick test_vsketch_guest_matches_host;
          Alcotest.test_case "prove/verify" `Slow test_vsketch_prove_verify;
          Alcotest.test_case "tamper detected" `Quick test_vsketch_tamper_detected;
        ] );
    ]
