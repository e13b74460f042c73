open Zkflow_netflow

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let rng () = Zkflow_util.Rng.create 0xbeefL

(* ---- Ipaddr ---- *)

let test_ip_roundtrip () =
  List.iter
    (fun s ->
      match Ipaddr.of_string s with
      | Ok ip -> check_string s s (Ipaddr.to_string ip)
      | Error e -> Alcotest.fail e)
    [ "0.0.0.0"; "255.255.255.255"; "10.1.2.3"; "192.168.0.1" ]

let test_ip_rejects_malformed () =
  List.iter
    (fun s -> check_bool s true (Result.is_error (Ipaddr.of_string s)))
    [ "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; ""; "1..2.3" ]

let test_ip_subnet () =
  let prefix = Ipaddr.of_string_exn "10.0.0.0" in
  check_bool "inside" true
    (Ipaddr.in_subnet (Ipaddr.of_string_exn "10.200.3.4") ~prefix ~bits:8);
  check_bool "outside" false
    (Ipaddr.in_subnet (Ipaddr.of_string_exn "11.0.0.1") ~prefix ~bits:8);
  check_bool "/32 exact" true (Ipaddr.in_subnet prefix ~prefix ~bits:32);
  check_bool "/0 everything" true
    (Ipaddr.in_subnet (Ipaddr.of_string_exn "8.8.8.8") ~prefix ~bits:0)

let test_ip_random_in_subnet () =
  let r = rng () in
  let prefix = Ipaddr.of_string_exn "172.16.0.0" in
  for _ = 1 to 200 do
    let ip = Ipaddr.random_in_subnet r ~prefix ~bits:12 in
    check_bool "member" true (Ipaddr.in_subnet ip ~prefix ~bits:12)
  done

(* ---- Flowkey ---- *)

let key1 =
  Flowkey.make ~src_ip:(Ipaddr.of_string_exn "1.1.1.1")
    ~dst_ip:(Ipaddr.of_string_exn "9.9.9.9") ~src_port:1234 ~dst_port:443 ~proto:6

let test_flowkey_words_roundtrip () =
  match Flowkey.of_words (Flowkey.to_words key1) with
  | Ok k -> check_bool "equal" true (Flowkey.equal k key1)
  | Error e -> Alcotest.fail e

let test_flowkey_words_layout () =
  let w = Flowkey.to_words key1 in
  check_int "src" (Ipaddr.of_string_exn "1.1.1.1") w.(0);
  check_int "dst" (Ipaddr.of_string_exn "9.9.9.9") w.(1);
  check_int "ports" ((1234 lsl 16) lor 443) w.(2);
  check_int "proto" 6 w.(3)

let test_flowkey_bytes_16 () =
  check_int "16 bytes" 16 (Bytes.length (Flowkey.to_bytes key1))

let test_flowkey_validation () =
  Alcotest.check_raises "port range"
    (Invalid_argument "Flowkey.make: src_port out of range") (fun () ->
      ignore (Flowkey.make ~src_ip:0 ~dst_ip:0 ~src_port:70000 ~dst_port:0 ~proto:6))

let prop_flowkey_roundtrip =
  QCheck.Test.make ~name:"flowkey words roundtrip" ~count:200
    QCheck.(quad (int_bound 0xffff) (int_bound 0xffff) (int_bound 0xff) small_nat)
    (fun (sp, dp, proto, seed) ->
      let r = Zkflow_util.Rng.create (Int64.of_int seed) in
      let k =
        Flowkey.make
          ~src_ip:(Zkflow_util.Rng.int r 0x7fffffff)
          ~dst_ip:(Zkflow_util.Rng.int r 0x7fffffff)
          ~src_port:sp ~dst_port:dp ~proto
      in
      match Flowkey.of_words (Flowkey.to_words k) with
      | Ok k' -> Flowkey.equal k k'
      | Error _ -> false)

(* ---- Record ---- *)

let test_record_words_roundtrip () =
  let r =
    Record.make ~key:key1 ~router_id:2
      { Record.packets = 100; bytes = 5000; hop_count = 100; losses = 3 }
  in
  match Record.of_words ~router_id:2 (Record.to_words r) with
  | Ok r' ->
    check_bool "key" true (Flowkey.equal r.Record.key r'.Record.key);
    check_int "packets" 100 r'.Record.metrics.Record.packets;
    check_int "losses" 3 r'.Record.metrics.Record.losses
  | Error e -> Alcotest.fail e

let test_record_add_metrics () =
  let a = { Record.packets = 10; bytes = 100; hop_count = 10; losses = 1 } in
  let b = { Record.packets = 5; bytes = 50; hop_count = 5; losses = 0 } in
  let s = Record.add_metrics a b in
  check_int "packets" 15 s.Record.packets;
  check_int "bytes" 150 s.Record.bytes;
  (* 32-bit wrap like the guest *)
  let big = { Record.packets = 0xffffffff; bytes = 0; hop_count = 0; losses = 0 } in
  check_int "wrap" 0
    (Record.add_metrics big { Record.packets = 1; bytes = 0; hop_count = 0; losses = 0 }).Record.packets

let test_record_bytes_is_32 () =
  let r = Record.make ~key:key1 Record.zero_metrics in
  check_int "32 bytes" 32 (Bytes.length (Record.to_bytes r))

(* ---- Export ---- *)

let test_export_roundtrip () =
  let records = Gen.records (rng ()) Gen.default_profile ~router_id:1 ~count:7 in
  match Export.batch_of_bytes ~router_id:1 (Export.batch_to_bytes records) with
  | Error e -> Alcotest.fail e
  | Ok back ->
    check_int "count" 7 (Array.length back);
    Array.iteri
      (fun i r ->
        check_bool "key" true (Flowkey.equal r.Record.key records.(i).Record.key);
        check_int "packets" records.(i).Record.metrics.Record.packets
          r.Record.metrics.Record.packets)
      back

let test_export_words_match_bytes () =
  (* The invariant the zkVM depends on: word stream big-endian = bytes. *)
  let records = Gen.records (rng ()) Gen.default_profile ~router_id:0 ~count:5 in
  let words = Export.batch_words records in
  let via_words = Zkflow_zkvm.Machine.journal_bytes words in
  check_string "byte-identical"
    (Zkflow_util.Hexcodec.encode (Export.batch_to_bytes records))
    (Zkflow_util.Hexcodec.encode via_words)

let test_export_hash_tamper_sensitivity () =
  let records = Gen.records (rng ()) Gen.default_profile ~router_id:0 ~count:5 in
  let h1 = Export.batch_hash records in
  let tampered = Array.copy records in
  tampered.(2) <-
    Record.make ~key:tampered.(2).Record.key
      (Record.add_metrics tampered.(2).Record.metrics
         { Record.packets = 0; bytes = 0; hop_count = 0; losses = 1 });
  check_bool "hash changes" false
    (Zkflow_hash.Digest32.equal h1 (Export.batch_hash tampered))

(* ---- Gen ---- *)

let test_gen_flows_distinct () =
  let flows = Gen.flows (rng ()) { Gen.default_profile with Gen.flow_count = 500 } in
  let uniq = Array.to_list flows |> List.sort_uniq Flowkey.compare in
  check_int "distinct" 500 (List.length uniq)

let test_gen_flows_in_subnets () =
  let p = Gen.default_profile in
  let flows = Gen.flows (rng ()) p in
  Array.iter
    (fun k ->
      check_bool "src subnet" true
        (Ipaddr.in_subnet k.Flowkey.src_ip ~prefix:p.Gen.src_prefix ~bits:p.Gen.src_bits);
      check_bool "dst subnet" true
        (Ipaddr.in_subnet k.Flowkey.dst_ip ~prefix:p.Gen.dst_prefix ~bits:p.Gen.dst_bits))
    flows

let test_gen_packets_monotonic_ts () =
  let r = rng () in
  let flows = Gen.flows r { Gen.default_profile with Gen.flow_count = 50 } in
  let pkts = Gen.packets r Gen.default_profile ~flows ~rate_pps:1000.0 ~duration_ms:2000 in
  check_bool "nonempty" true (List.length pkts > 500);
  let rec mono = function
    | a :: (b :: _ as rest) -> a.Packet.ts <= b.Packet.ts && mono rest
    | _ -> true
  in
  check_bool "monotonic" true (mono pkts)

let test_gen_packets_zipf_skew () =
  let r = rng () in
  let flows = Gen.flows r { Gen.default_profile with Gen.flow_count = 100 } in
  let pkts =
    Gen.packets r
      { Gen.default_profile with Gen.zipf_s = 1.3 }
      ~flows ~rate_pps:5000.0 ~duration_ms:4000
  in
  let counts = Hashtbl.create 100 in
  List.iter
    (fun p ->
      Hashtbl.replace counts p.Packet.key
        (1 + Option.value (Hashtbl.find_opt counts p.Packet.key) ~default:0))
    pkts;
  let top = Option.value (Hashtbl.find_opt counts flows.(0)) ~default:0 in
  check_bool "rank-1 flow dominates" true
    (top * 10 > List.length pkts)

let test_gen_records_count_and_distinct () =
  let records = Gen.records (rng ()) Gen.default_profile ~router_id:3 ~count:100 in
  check_int "count" 100 (Array.length records);
  let keys = Array.to_list records |> List.map (fun r -> r.Record.key) in
  check_int "distinct keys" 100 (List.length (List.sort_uniq Flowkey.compare keys));
  Array.iter (fun r -> check_int "router id" 3 r.Record.router_id) records

(* ---- Router ---- *)

let mk_pkt ?(size = 100) ts =
  Packet.make ~key:key1 ~size ~ts

let test_router_accumulates () =
  let r = Router.create (Router.default_config ~id:1) in
  Router.observe r (mk_pkt 0);
  Router.observe r (mk_pkt ~size:200 10);
  check_int "one flow" 1 (Router.active_flows r);
  match Router.flush r ~now:20 with
  | [ rec1 ] ->
    check_int "packets" 2 rec1.Record.metrics.Record.packets;
    check_int "bytes" 300 rec1.Record.metrics.Record.bytes;
    check_int "hop = packets" 2 rec1.Record.metrics.Record.hop_count;
    check_int "first" 0 rec1.Record.first_ts;
    check_int "last" 10 rec1.Record.last_ts;
    check_int "flushed" 0 (Router.active_flows r)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length l))

let test_router_drop_counts_loss () =
  let r = Router.create (Router.default_config ~id:1) in
  Router.observe r (mk_pkt 0);
  Router.drop r (mk_pkt 5);
  match Router.flush r ~now:10 with
  | [ rec1 ] ->
    check_int "packets include dropped" 2 rec1.Record.metrics.Record.packets;
    check_int "loss" 1 rec1.Record.metrics.Record.losses
  | _ -> Alcotest.fail "expected 1 record"

let test_router_inactive_timeout () =
  let r =
    Router.create { Router.id = 1; active_timeout_ms = 100_000; inactive_timeout_ms = 1000; sampling_interval = 1 }
  in
  Router.observe r (mk_pkt 0);
  check_int "not yet" 0 (List.length (Router.expire r ~now:500));
  check_int "expired" 1 (List.length (Router.expire r ~now:1500));
  check_int "cache empty" 0 (Router.active_flows r)

let test_router_active_timeout () =
  let r =
    Router.create { Router.id = 1; active_timeout_ms = 1000; inactive_timeout_ms = 100_000; sampling_interval = 1 }
  in
  Router.observe r (mk_pkt 0);
  Router.observe r (mk_pkt 900);
  (* still active, but past the active timeout *)
  check_int "expired by age" 1 (List.length (Router.expire r ~now:1000))

let test_router_rejects_time_travel () =
  let r = Router.create (Router.default_config ~id:1) in
  Router.observe r (mk_pkt 100);
  Alcotest.check_raises "backwards"
    (Invalid_argument "Router: packet timestamps must be non-decreasing per flow")
    (fun () -> Router.observe r (mk_pkt 50))

(* ---- Topology ---- *)

let test_topology_linear_all_hops () =
  let t = Topology.linear (List.init 4 (fun i -> Router.default_config ~id:i)) in
  let r = rng () in
  for ts = 0 to 9 do
    Topology.inject t ~rng:r ~loss_rate:[| 0.; 0.; 0.; 0. |] (mk_pkt ts)
  done;
  let per_router = Topology.flush t ~now:100 in
  check_int "4 routers" 4 (List.length per_router);
  List.iter
    (fun (_, records) ->
      match records with
      | [ rcd ] -> check_int "all packets at each hop" 10 rcd.Record.metrics.Record.packets
      | _ -> Alcotest.fail "expected 1 record per router")
    per_router

let test_topology_loss_stops_downstream () =
  let t = Topology.linear (List.init 2 (fun i -> Router.default_config ~id:i)) in
  let r = rng () in
  (* 100% loss at router 0: router 1 must see nothing. *)
  for ts = 0 to 4 do
    Topology.inject t ~rng:r ~loss_rate:[| 1.0; 0.0 |] (mk_pkt ts)
  done;
  let per_router = Topology.flush t ~now:100 in
  let r0 = List.assoc 0 per_router and r1 = List.assoc 1 per_router in
  check_int "router0 loss" 5 (List.nth r0 0).Record.metrics.Record.losses;
  check_int "router1 silent" 0 (List.length r1)

(* ---- sampling ---- *)

let test_router_sampling_unbiased () =
  let r =
    Router.create
      { (Router.default_config ~id:1) with Router.sampling_interval = 8 }
  in
  for ts = 0 to 7999 do
    Router.observe r (mk_pkt ts)
  done;
  match Router.flush r ~now:9000 with
  | [ rcd ] ->
    (* systematic 1-in-8: exactly 1000 samples, scaled by 8 *)
    check_int "estimated packets" 8000 rcd.Record.metrics.Record.packets
  | l -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length l))

let test_router_sampling_may_miss_small_flows () =
  let r =
    Router.create
      { (Router.default_config ~id:1) with Router.sampling_interval = 100 }
  in
  (* 3 packets with 1-in-100 systematic sampling: flow never sampled *)
  for ts = 0 to 2 do
    Router.observe r (mk_pkt ts)
  done;
  check_int "no cache entry" 0 (Router.active_flows r)

let test_router_sampling_validation () =
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Router.create: sampling_interval must be >= 1") (fun () ->
      ignore
        (Router.create
           { (Router.default_config ~id:0) with Router.sampling_interval = 0 }))

let test_topology_routed_subset () =
  let t =
    Topology.routed
      (List.init 3 (fun i -> Router.default_config ~id:i))
      ~route:(fun k -> if k.Flowkey.dst_port = 443 then [ 0; 2 ] else [ 1 ])
  in
  let r = rng () in
  Topology.inject t ~rng:r ~loss_rate:[| 0.; 0.; 0. |] (mk_pkt 0);
  let per_router = Topology.flush t ~now:100 in
  check_int "router0 saw it" 1 (List.length (List.assoc 0 per_router));
  check_int "router1 skipped" 0 (List.length (List.assoc 1 per_router));
  check_int "router2 saw it" 1 (List.length (List.assoc 2 per_router))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "zkflow_netflow"
    [
      ( "ipaddr",
        [
          Alcotest.test_case "roundtrip" `Quick test_ip_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_ip_rejects_malformed;
          Alcotest.test_case "subnet" `Quick test_ip_subnet;
          Alcotest.test_case "random in subnet" `Quick test_ip_random_in_subnet;
        ] );
      ( "flowkey",
        [
          Alcotest.test_case "words roundtrip" `Quick test_flowkey_words_roundtrip;
          Alcotest.test_case "words layout" `Quick test_flowkey_words_layout;
          Alcotest.test_case "bytes length" `Quick test_flowkey_bytes_16;
          Alcotest.test_case "validation" `Quick test_flowkey_validation;
          q prop_flowkey_roundtrip;
        ] );
      ( "record",
        [
          Alcotest.test_case "words roundtrip" `Quick test_record_words_roundtrip;
          Alcotest.test_case "add metrics" `Quick test_record_add_metrics;
          Alcotest.test_case "bytes length" `Quick test_record_bytes_is_32;
        ] );
      ( "export",
        [
          Alcotest.test_case "batch roundtrip" `Quick test_export_roundtrip;
          Alcotest.test_case "words match bytes" `Quick test_export_words_match_bytes;
          Alcotest.test_case "hash tamper-sensitive" `Quick test_export_hash_tamper_sensitivity;
        ] );
      ( "gen",
        [
          Alcotest.test_case "distinct flows" `Quick test_gen_flows_distinct;
          Alcotest.test_case "flows in subnets" `Quick test_gen_flows_in_subnets;
          Alcotest.test_case "packet timestamps" `Quick test_gen_packets_monotonic_ts;
          Alcotest.test_case "zipf skew" `Quick test_gen_packets_zipf_skew;
          Alcotest.test_case "record synthesis" `Quick test_gen_records_count_and_distinct;
        ] );
      ( "router",
        [
          Alcotest.test_case "accumulates" `Quick test_router_accumulates;
          Alcotest.test_case "drop counts loss" `Quick test_router_drop_counts_loss;
          Alcotest.test_case "inactive timeout" `Quick test_router_inactive_timeout;
          Alcotest.test_case "active timeout" `Quick test_router_active_timeout;
          Alcotest.test_case "rejects time travel" `Quick test_router_rejects_time_travel;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "unbiased estimate" `Quick test_router_sampling_unbiased;
          Alcotest.test_case "misses small flows" `Quick test_router_sampling_may_miss_small_flows;
          Alcotest.test_case "validation" `Quick test_router_sampling_validation;
        ] );
      ( "topology",
        [
          Alcotest.test_case "linear all hops" `Quick test_topology_linear_all_hops;
          Alcotest.test_case "loss stops downstream" `Quick test_topology_loss_stops_downstream;
          Alcotest.test_case "routed subset" `Quick test_topology_routed_subset;
        ] );
    ]
