(* Telemetry subsystem tests.

   The load-bearing property is the differential one: proving with
   telemetry enabled yields bit-identical receipts and CLog roots to
   proving with it disabled — observation never changes what is
   proven. The rest covers the metric/span primitives, the exporters
   (parsed back through Jsonx so escaping bugs fail here, not in
   Perfetto), and the restored-round marker of the service state. *)

module Obs = Zkflow_obs.Obs
module Metric = Zkflow_obs.Metric
module Span = Zkflow_obs.Span
module Export = Zkflow_obs.Export
module Jsonx = Zkflow_util.Jsonx
module D = Zkflow_hash.Digest32
module Gen = Zkflow_netflow.Gen
module Export_nf = Zkflow_netflow.Export
open Zkflow_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let digest = Alcotest.testable D.pp D.equal
let params = Zkflow_zkproof.Params.make ~queries:8

(* ---- differential: telemetry never changes proof outputs ---- *)

let bench_batches () =
  let rng = Zkflow_util.Rng.create 0x0b5e7L in
  let records = Gen.records rng Gen.default_profile ~router_id:0 ~count:16 in
  [ (Export_nf.batch_hash records, records) ]

let prove_once () =
  match Aggregate.prove_round ~params ~prev:Clog.empty (bench_batches ()) with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_differential_receipts () =
  Obs.disable ();
  let off = prove_once () in
  let on = Obs.with_enabled prove_once in
  check_bool "receipt bit-identical" true
    (Zkflow_zkproof.Receipt.encode off.Aggregate.receipt
    = Zkflow_zkproof.Receipt.encode on.Aggregate.receipt);
  Alcotest.check digest "clog root identical" (Clog.root off.Aggregate.clog)
    (Clog.root on.Aggregate.clog);
  Alcotest.check digest "journal new_root identical"
    off.Aggregate.journal.Guests.new_root on.Aggregate.journal.Guests.new_root;
  check_int "cycles identical" off.Aggregate.cycles on.Aggregate.cycles

(* ---- metric primitives ---- *)

let test_counter_disabled_noop () =
  Obs.reset ();
  Obs.disable ();
  let c = Metric.counter "test.noop" in
  Metric.add c 41;
  check_int "disabled add ignored" 0 (Metric.value c);
  check_int "disabled span start is 0" 0 (Span.start ())

let test_counter_multidomain () =
  Obs.with_enabled (fun () ->
      let c = Metric.counter "test.multidomain" in
      let workers =
        Array.init 3 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 1000 do
                  Metric.add c 1
                done))
      in
      Array.iter Domain.join workers;
      Metric.add c 5;
      check_int "cells sum across domains" 3005 (Metric.value c))

let test_histogram_buckets () =
  Obs.with_enabled (fun () ->
      let h = Metric.histogram "test.hist" in
      List.iter (Metric.observe h) [ 1; 2; 3; 1000; 0 ];
      let s = Metric.snapshot h in
      check_int "count" 5 s.Metric.count;
      check_int "sum" 1006 s.Metric.sum;
      check_int "max" 1000 s.Metric.max_value;
      (* cumulative: the last bucket holds everything *)
      match List.rev s.Metric.buckets with
      | (_, n) :: _ -> check_int "cumulative tail" 5 n
      | [] -> Alcotest.fail "no buckets")

let test_reset_zeroes () =
  Obs.with_enabled (fun () ->
      let c = Metric.counter "test.reset" in
      Metric.add c 7;
      ignore (Span.with_span "test.reset_span" (fun () -> ()));
      Obs.reset ();
      check_int "counter zeroed" 0 (Metric.value c);
      check_int "spans dropped" 0 (List.length (Span.events ())))

(* ---- percentiles from log2 buckets ---- *)

let test_percentile () =
  let s = Metric.snapshot_of_values (List.init 100 (fun i -> i + 1)) in
  check_int "count" 100 s.Metric.count;
  (* values 1..100: rank 50 lands in the [32,63] bucket, whose le
     bound is the reported (upper-bound) percentile *)
  check_int "p50 upper bound" 63 (Metric.percentile s 0.50);
  (* the tail bucket's bound exceeds the max, so the max wins *)
  check_int "p99 capped at max" 100 (Metric.percentile s 0.99);
  check_int "p100 is max" 100 (Metric.percentile s 1.0);
  check_int "q clamped below" 1 (Metric.percentile s (-3.0));
  let single = Metric.snapshot_of_values [ 7 ] in
  check_int "single value" 7 (Metric.percentile single 0.5);
  let empty = Metric.snapshot_of_values [] in
  check_int "empty is 0" 0 (Metric.percentile empty 0.5)

let test_percentile_all_equal () =
  (* every observation in one bucket: the cap at the observed max makes
     the estimate exact, not an upper bound *)
  let s = Metric.snapshot_of_values (List.init 10 (fun _ -> 16)) in
  check_int "count" 10 s.Metric.count;
  check_int "p50 exact" 16 (Metric.percentile s 0.50);
  check_int "p99 exact" 16 (Metric.percentile s 0.99)

(* ---- events: the pipeline flight recorder ---- *)

module Event = Zkflow_obs.Event

let test_event_disabled_noop () =
  Obs.reset ();
  Obs.disable ();
  Event.emit ~track:"test" "test.noop";
  check_int "disabled emit ignored" 0 (List.length (Event.events ()))

let test_event_fields () =
  Obs.reset ();
  Obs.with_enabled (fun () ->
      Event.emit ~router:2 ~epoch:5 ~round:1 ~track:"prover" "prover.round.done"
        ~attrs:[ ("cycles", Jsonx.Num 42.) ]);
  match Event.events () with
  | [ e ] ->
    Alcotest.(check string) "track" "prover" e.Event.track;
    Alcotest.(check string) "kind" "prover.round.done" e.Event.kind;
    Alcotest.(check (option int)) "router" (Some 2) e.Event.router;
    Alcotest.(check (option int)) "epoch" (Some 5) e.Event.epoch;
    Alcotest.(check (option int)) "round" (Some 1) e.Event.round;
    Alcotest.(check (option int)) "query" None e.Event.query;
    check_bool "ts positive" true (e.Event.ts_ns > 0);
    check_bool "attr kept" true
      (List.assoc_opt "cycles" e.Event.attrs = Some (Jsonx.Num 42.))
  | evs -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length evs))

let test_event_ring_drops_oldest () =
  Obs.reset ();
  let saved = Event.capacity () in
  Event.set_capacity 4;
  Fun.protect
    ~finally:(fun () -> Event.set_capacity saved)
    (fun () ->
      Obs.with_enabled (fun () ->
          for i = 0 to 5 do
            Event.emit ~epoch:i ~track:"test" "test.tick"
          done);
      let evs = Event.events () in
      check_int "ring holds capacity" 4 (List.length evs);
      check_int "two dropped" 2 (Event.dropped ());
      match evs with
      | first :: _ ->
        Alcotest.(check (option int)) "oldest surviving epoch" (Some 2)
          first.Event.epoch
      | [] -> Alcotest.fail "empty ring")

let test_event_json_roundtrip () =
  Obs.reset ();
  Obs.with_enabled (fun () ->
      Event.emit ~router:1 ~epoch:3 ~track:"board" "board.publish"
        ~attrs:[ ("batch", Jsonx.Str "ab\"cd\n"); ("records", Jsonx.Num 8.) ]);
  let e = List.hd (Event.events ()) in
  let line = Jsonx.to_string (Event.to_json e) in
  match Event.parse_line line with
  | Error err -> Alcotest.fail ("round-trip parse failed: " ^ err)
  | Ok e' ->
    check_bool "round-trips" true (e = e');
    (* flush produces the same line (plus newline) and clears the ring *)
    let buf = Buffer.create 128 in
    Event.flush (Buffer.add_string buf);
    Alcotest.(check string) "flush line" (line ^ "\n") (Buffer.contents buf);
    check_int "flushed ring empty" 0 (List.length (Event.events ()))

(* ---- prometheus quantiles ---- *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_prometheus_quantiles () =
  Obs.with_enabled (fun () ->
      let h = Metric.histogram "test.quant" in
      List.iter (Metric.observe h) [ 1; 10; 100 ]);
  let text = Export.prometheus () in
  List.iter
    (fun needle ->
      check_bool (needle ^ " in prometheus dump") true (contains ~needle text))
    [ "quantile=\"0.5\""; "quantile=\"0.95\""; "quantile=\"0.99\"" ]

(* ---- JSONL loaders: round-trip and torn-tail tolerance ---- *)

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let temp_path suffix =
  let path = Filename.temp_file "zkflow-obs" suffix in
  path

(* A crash mid-flush tears the final line at an arbitrary byte. Every
   cut point inside the last line must yield the decodable prefix plus
   a note — never an error, never silent loss of the intact lines. *)
let test_event_load_torn_tail () =
  Obs.reset ();
  Obs.with_enabled (fun () ->
      for i = 0 to 2 do
        Event.emit ~epoch:i ~track:"test" "test.tick"
      done);
  let path = temp_path ".jsonl" in
  Event.write_jsonl path;
  let full = read_file path in
  (* intact file: all three events, no note *)
  (match Event.load_jsonl path with
  | Ok (evs, None) -> check_int "intact load" 3 (List.length evs)
  | Ok (_, Some note) -> Alcotest.fail ("unexpected note on intact file: " ^ note)
  | Error e -> Alcotest.fail e);
  let len = String.length full in
  let last_start = String.rindex_from full (len - 2) '\n' + 1 in
  (* cut at the line boundary: a clean two-event log *)
  write_file path (String.sub full 0 last_start);
  (match Event.load_jsonl path with
  | Ok (evs, None) -> check_int "boundary cut" 2 (List.length evs)
  | Ok (_, Some note) -> Alcotest.fail ("boundary cut is not torn: " ^ note)
  | Error e -> Alcotest.fail e);
  (* every mid-line cut: prefix plus a truncated_tail note *)
  for cut = last_start + 1 to len - 2 do
    write_file path (String.sub full 0 cut);
    match Event.load_jsonl path with
    | Ok (evs, Some _) ->
      check_int (Printf.sprintf "torn at byte %d keeps the prefix" cut) 2
        (List.length evs)
    | Ok (_, None) ->
      Alcotest.fail (Printf.sprintf "torn at byte %d: no truncation note" cut)
    | Error e -> Alcotest.fail (Printf.sprintf "torn at byte %d rejected: %s" cut e)
  done;
  (* a torn tail followed only by blank lines is still just a tail *)
  write_file path (String.sub full 0 (len - 2) ^ "\n\n");
  (match Event.load_jsonl path with
  | Ok (evs, Some _) -> check_int "tail before blanks" 2 (List.length evs)
  | Ok (_, None) -> Alcotest.fail "no note for torn tail before blanks"
  | Error e -> Alcotest.fail e);
  (* corruption mid-file — intact events after the bad line — is an
     error that names the line, not a tail to shrug off *)
  (match String.split_on_char '\n' full with
  | [ l0; _; l2; _ ] ->
    write_file path (l0 ^ "\n{torn" ^ "\n" ^ l2 ^ "\n");
    (match Event.load_jsonl path with
    | Ok _ -> Alcotest.fail "mid-file corruption accepted"
    | Error e -> check_bool "names line 2" true (contains ~needle:":2:" e))
  | _ -> Alcotest.fail "expected 3 lines");
  Sys.remove path

(* ---- the embedded HTTP server ---- *)

module Httpd = Zkflow_obs.Httpd

let http_get ~port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 512 in
      let chunk = Bytes.create 1024 in
      let rec go () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
      in
      go ();
      Buffer.contents buf)

let test_httpd_roundtrip () =
  let handler (req : Httpd.request) =
    match req.path with
    | "/ping" -> Some { Httpd.status = 200; content_type = "text/plain"; body = "pong" }
    | "/echo" ->
      let v = Option.value ~default:"?" (Httpd.param req "msg") in
      Some { Httpd.status = 200; content_type = "text/plain"; body = "echo:" ^ v }
    | "/boom" -> failwith "kaboom"
    | _ -> None
  in
  match Httpd.start ~port:0 handler with
  | Error e -> Alcotest.fail ("httpd start: " ^ e)
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Httpd.stop srv)
      (fun () ->
        let port = Httpd.port srv in
        check_bool "ephemeral port bound" true (port > 0);
        let resp = http_get ~port "/ping" in
        check_bool "status 200" true (contains ~needle:"HTTP/1.0 200" resp);
        check_bool "body served" true (contains ~needle:"pong" resp);
        check_bool "connection closed" true (contains ~needle:"Connection: close" resp);
        (* a query string is split off the path before routing ... *)
        check_bool "query string split from path" true
          (contains ~needle:"HTTP/1.0 200" (http_get ~port "/ping?x=1"));
        (* ... and delivered to the handler, percent-decoded *)
        check_bool "params decoded" true
          (contains ~needle:"echo:a b&c"
             (http_get ~port "/echo?msg=a+b%26c&other=1"));
        (* unknown path: JSON 404 naming the path *)
        let resp = http_get ~port "/nope" in
        check_bool "404" true (contains ~needle:"HTTP/1.0 404" resp);
        check_bool "404 names the path" true (contains ~needle:{|"/nope"|} resp);
        (* a handler exception becomes a JSON 500, never a crash *)
        let resp = http_get ~port "/boom" in
        check_bool "500 on handler raise" true (contains ~needle:"HTTP/1.0 500" resp);
        check_bool "500 carries detail" true (contains ~needle:"kaboom" resp);
        (* the server survived all of the above *)
        check_bool "still serving" true
          (contains ~needle:"HTTP/1.0 200" (http_get ~port "/ping")))

let test_httpd_request_of_target () =
  let req = Httpd.request_of_target "/query?src=10.0.0.1&op=sum&flag" in
  check_string "path" "/query" req.Httpd.path;
  check_string "src" "10.0.0.1" (Option.get (Httpd.param req "src"));
  check_string "op" "sum" (Option.get (Httpd.param req "op"));
  check_string "bare key" "" (Option.get (Httpd.param req "flag"));
  check_bool "missing key" true (Httpd.param req "nope" = None);
  let req = Httpd.request_of_target "/plain" in
  check_string "no query path" "/plain" req.Httpd.path;
  check_bool "no query params" true (req.Httpd.params = []);
  let req = Httpd.request_of_target "/x?a=%2Fv%41l+1" in
  check_string "percent decoding" "/vAl 1" (Option.get (Httpd.param req "a"))

(* Past the connection cap the server sheds with an immediate 503 from
   the accept thread — it never parks a request thread. A connection
   that connects but never sends its request holds its handler slot,
   which is exactly how a slowloris would pin threads. *)
let test_httpd_saturation () =
  (* a handler that blocks until we release it, so one in-flight
     request provably occupies the single slot *)
  let gate_m = Mutex.create () in
  let gate_c = Condition.create () in
  let release = ref false in
  let entered = ref false in
  let handler (req : Httpd.request) =
    match req.Httpd.path with
    | "/slow" ->
      Mutex.lock gate_m;
      entered := true;
      Condition.broadcast gate_c;
      while not !release do
        Condition.wait gate_c gate_m
      done;
      Mutex.unlock gate_m;
      Some { Httpd.status = 200; content_type = "text/plain"; body = "slow" }
    | _ -> None
  in
  match Httpd.start ~port:0 ~max_conns:1 handler with
  | Error e -> Alcotest.fail ("httpd start: " ^ e)
  | Ok srv ->
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock gate_m;
        release := true;
        Condition.broadcast gate_c;
        Mutex.unlock gate_m;
        Httpd.stop srv)
      (fun () ->
        let port = Httpd.port srv in
        (* occupy the single slot from a background thread *)
        let holder = Thread.create (fun () -> http_get ~port "/slow") () in
        Mutex.lock gate_m;
        while not !entered do
          Condition.wait gate_c gate_m
        done;
        Mutex.unlock gate_m;
        (* second connection is shed immediately with a 503 *)
        let resp = http_get ~port "/anything" in
        check_bool "503 on saturation" true
          (contains ~needle:"HTTP/1.0 503" resp);
        check_bool "503 says saturated" true
          (contains ~needle:"saturated" resp);
        (* release the slot; the server recovers *)
        Mutex.lock gate_m;
        release := true;
        Condition.broadcast gate_c;
        Mutex.unlock gate_m;
        let held = Thread.join holder in
        ignore held;
        check_bool "slot freed, serving again" true
          (contains ~needle:"HTTP/1.0 404" (http_get ~port "/after")))

(* A client that connects and stalls without finishing its request
   headers gets a 408 once the read deadline expires — the handler
   thread is not pinned forever. *)
let test_httpd_read_deadline () =
  let handler (_ : Httpd.request) =
    Some { Httpd.status = 200; content_type = "text/plain"; body = "ok" }
  in
  match Httpd.start ~port:0 ~read_timeout_s:0.2 handler with
  | Error e -> Alcotest.fail ("httpd start: " ^ e)
  | Ok srv ->
    Fun.protect
      ~finally:(fun () -> Httpd.stop srv)
      (fun () ->
        let port = Httpd.port srv in
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            (* send a partial request line and stall *)
            let partial = "GET /st" in
            ignore (Unix.write_substring sock partial 0 (String.length partial));
            let buf = Buffer.create 128 in
            let chunk = Bytes.create 256 in
            let rec drain () =
              match Unix.read sock chunk 0 (Bytes.length chunk) with
              | 0 -> ()
              | n ->
                Buffer.add_subbytes buf chunk 0 n;
                drain ()
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
            in
            drain ();
            let resp = Buffer.contents buf in
            check_bool "408 on stalled client" true
              (contains ~needle:"HTTP/1.0 408" resp));
        (* a prompt client is still served *)
        check_bool "prompt client unaffected" true
          (contains ~needle:"HTTP/1.0 200" (http_get ~port "/fast")))

(* ---- monitor: health reports from synthetic event logs ---- *)

let ev ?router ?epoch ?round ?(attrs = []) ~ts track kind =
  { Event.ts_ns = ts; track; kind; router; epoch; round; query = None; attrs }

let check_reasons what expected (v : Monitor.verdict) =
  Alcotest.(check (list string)) what expected v.reasons;
  check_bool (what ^ ": healthy iff no reason") (expected = []) v.healthy

let test_monitor_lag_and_gaps () =
  let events =
    [
      (* router 0 publishes epochs 0,1,2; router 1 publishes 0 then 2
         (gap at 1); router 2 stops after epoch 0 (lag 2) *)
      ev ~router:0 ~epoch:0 ~ts:1 "router.0" "board.publish";
      ev ~router:1 ~epoch:0 ~ts:2 "router.1" "board.publish";
      ev ~router:2 ~epoch:0 ~ts:3 "router.2" "board.publish";
      ev ~router:0 ~epoch:1 ~ts:4 "router.0" "board.publish";
      ev ~router:0 ~epoch:2 ~ts:5 "router.0" "board.publish";
      ev ~router:1 ~epoch:2 ~ts:6 "router.1" "board.publish";
      (* a replay must NOT count as a publication *)
      ev ~router:2 ~epoch:1 ~ts:7 "board" "board.replay";
    ]
  in
  let r = Monitor.build events in
  Alcotest.(check (list int)) "epochs" [ 0; 1; 2 ] r.Monitor.epochs;
  (match r.Monitor.routers with
  | [ r0; r1; r2 ] ->
    check_int "r0 lag" 0 r0.Monitor.lag;
    Alcotest.(check (list int)) "r0 no gaps" [] r0.Monitor.missed;
    check_int "r1 lag" 0 r1.Monitor.lag;
    Alcotest.(check (list int)) "r1 gap at epoch 1" [ 1 ] r1.Monitor.missed;
    check_int "r2 lag" 2 r2.Monitor.lag;
    Alcotest.(check (option int)) "r2 last epoch" (Some 0) r2.Monitor.last_epoch
  | rs -> Alcotest.fail (Printf.sprintf "expected 3 routers, got %d" (List.length rs)));
  check_reasons "lag is the only reason" [ "router-lag" ] r.Monitor.verdict

(* [round_trend] over fixed event logs: each [prover.round.done]
   carries its [prove_ns] and [execute_ns], and the newer half of the
   done rounds, in log order, is compared with the older half. *)
let test_trend_of_rounds () =
  let ms n = n * 1_000_000 in
  let done_round ix ns =
    ev ~epoch:ix ~round:ix ~ts:(ms (10 * (ix + 1))) "prover" "prover.round.done"
      ~attrs:
        [
          ("prove_ns", Jsonx.Num (float_of_int (ns - (ns / 4))));
          ("execute_ns", Jsonx.Num (float_of_int (ns / 4)));
        ]
  in
  let trend latencies =
    (Monitor.build (List.mapi done_round latencies)).Monitor.round_trend
  in
  check_bool "no rounds: no trend" true (trend [] = None);
  check_bool "one round: no trend" true (trend [ ms 4 ] = None);
  (match trend [ ms 1; ms 1; ms 8; ms 8 ] with
  | None -> Alcotest.fail "both halves saw rounds: want a trend"
  | Some t ->
    check_int "older half rounds" 2 t.Monitor.prev_count;
    check_int "newer half rounds" 2 t.Monitor.last_count;
    check_int "older p95" (ms 1) t.Monitor.prev_p95_ns;
    check_int "newer p95" (ms 8) t.Monitor.last_p95_ns;
    Alcotest.(check (option (float 1e-9))) "ratio" (Some 8.) t.Monitor.trend_ratio);
  match trend [ 0; 0; ms 2 ] with
  | None -> Alcotest.fail "three rounds: want a trend"
  | Some t ->
    check_int "older half is the first n/2 rounds" 1 t.Monitor.prev_count;
    check_int "newer half is the rest" 2 t.Monitor.last_count;
    check_int "older p95" 0 t.Monitor.prev_p95_ns;
    check_bool "older p95 of 0: no ratio" true (t.Monitor.trend_ratio = None)

let test_monitor_rounds_and_rejects () =
  let ms n = n * 1_000_000 in
  let events =
    [
      ev ~router:0 ~epoch:0 ~ts:1 "router.0" "board.publish";
      ev ~epoch:0 ~round:0 ~ts:(ms 10) "prover" "prover.round.start"
        ~attrs:[ ("queue_depth", Jsonx.Num 2.) ];
      ev ~epoch:0 ~round:0 ~ts:(ms 30) "prover" "prover.round.done"
        ~attrs:[ ("prove_ns", Jsonx.Num (float_of_int (ms 15))) ];
      ev ~epoch:1 ~round:1 ~ts:(ms 40) "prover" "prover.round.start"
        ~attrs:[ ("queue_depth", Jsonx.Num 1.) ];
      ev ~epoch:1 ~round:1 ~ts:(ms 45) "prover" "prover.round.error"
        ~attrs:[ ("detail", Jsonx.Str "router 1 has no published commitment") ];
      ev ~epoch:0 ~round:0 ~ts:(ms 50) "verifier" "verifier.round.accept";
      ev ~epoch:1 ~round:1 ~ts:(ms 60) "verifier" "verifier.reject"
        ~attrs:[ ("check", Jsonx.Str "digest_match") ];
      ev ~epoch:1 ~round:1 ~ts:(ms 61) "verifier" "verifier.reject"
        ~attrs:[ ("check", Jsonx.Str "digest_match") ];
      ev ~ts:(ms 62) "verifier" "verifier.reject"
        ~attrs:[ ("check", Jsonx.Str "query.root") ];
    ]
  in
  let r = Monitor.build events in
  check_int "started" 2 r.Monitor.rounds_started;
  check_int "done" 1 r.Monitor.rounds_done;
  check_int "error" 1 r.Monitor.rounds_error;
  check_int "accepts" 1 r.Monitor.verifier_accepts;
  Alcotest.(check (list (pair string int)))
    "rejects by cause"
    [ ("digest_match", 2); ("query.root", 1) ]
    r.Monitor.verifier_rejects;
  check_int "max queue depth" 2 r.Monitor.max_queue_depth;
  (match r.Monitor.round_latency with
  | Some l ->
    check_int "one completed round measured" 1 l.Monitor.count;
    check_bool "p50 bounds 20ms" true (l.Monitor.p50_ns >= ms 20)
  | None -> Alcotest.fail "no round latency");
  check_reasons "errors and rejects fire their objectives"
    [ "prover-errors"; "verifier-acceptance" ] r.Monitor.verdict;
  (* report serializes *)
  match Jsonx.parse (Jsonx.to_string (Monitor.to_json r)) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("monitor json: " ^ e)

(* One verdict on every surface: each fixed log carries the reasons
   {!Monitor.verdict} must give it, and /healthz of a {!Watch} handler
   over the same log must answer the same verdict, 200 or 503. *)
(* Twelve fixed logs, one per reason a verdict can name (and the
   clean and recovered ones), with the reasons each must yield. *)
let one_verdict_cases =
  let ms n = n * 1_000_000 in
  (* two routers publish three epochs, each proved and accepted *)
  let clean =
    List.concat_map
      (fun epoch ->
        let t = ms (100 * epoch) in
        [
          ev ~router:0 ~epoch ~ts:(t + 1) "router.0" "board.publish";
          ev ~router:1 ~epoch ~ts:(t + 2) "router.1" "board.publish";
          ev ~epoch ~round:epoch ~ts:(t + 3) "prover" "prover.round.start";
          ev ~epoch ~round:epoch ~ts:(t + 4) "prover" "prover.round.done";
          ev ~epoch ~round:epoch ~ts:(t + 5) "verifier" "verifier.round.accept";
        ])
      [ 0; 1; 2 ]
  in
  let at n kind = ev ~ts:(ms 300 + n) "daemon" kind in
  let r1_e1 = function
    | { Event.router = Some 1; epoch = Some 1; kind = "board.publish"; _ } -> false
    | _ -> true
  in
  let gap kind = ev ~router:1 ~epoch:1 ~round:1 ~ts:(ms 150) "prover" kind in
  let sorted events =
    List.stable_sort (fun (a : Event.t) b -> Int.compare a.Event.ts_ns b.Event.ts_ns) events
  in
  let cases =
    [
      ("clean", clean, []);
      ( "crash plus resume",
        clean @ [ at 1 "fault.crash"; ev ~ts:(ms 300 + 2) "prover" "prover.resume" ],
        [ "prover-restarts" ] );
      ("healed delay", sorted (clean @ [ gap "prover.gap.open"; gap "prover.gap.heal" ]),
       [ "coverage" ]);
      ( "dropped export",
        sorted (List.filter r1_e1 clean @ [ gap "prover.gap.open" ]),
        [ "coverage"; "router-lag"; "open-gaps" ] );
      ( "board reject",
        clean @ [ ev ~router:1 ~epoch:2 ~ts:(ms 300) "board" "board.reject" ],
        [ "board-integrity" ] );
      ( "verifier reject",
        clean @ [ ev ~epoch:2 ~ts:(ms 300) "verifier" "verifier.reject" ],
        [ "verifier-acceptance" ] );
      ( "shed",
        clean @ [ at 1 "daemon.ingest.accept"; at 2 "daemon.ingest.shed" ],
        [ "ingest-admission" ] );
      ( "publish-only lag",
        List.filter
          (fun (e : Event.t) ->
            e.Event.kind = "board.publish" && (e.Event.router = Some 0 || e.Event.epoch = Some 0))
          clean,
        [ "router-lag" ] );
      ("daemon crash without a restart", clean @ [ at 1 "daemon.crash" ], [ "daemon-crashed" ]);
      ("daemon crash, then restart", clean @ [ at 1 "daemon.crash"; at 2 "daemon.restart" ], []);
      ("breaker open", clean @ [ at 1 "daemon.breaker.open" ], [ "breaker-open" ]);
      ( "breaker open, then half-open",
        clean @ [ at 1 "daemon.breaker.open"; at 2 "daemon.breaker.half_open" ],
        [] );
    ]
  in
  cases

let test_one_verdict () =
  let cases = one_verdict_cases in
  List.iter
    (fun (name, events, expected) ->
      let v = Monitor.verdict events in
      check_reasons name expected v;
      let source =
        {
          Watch.label = "fixed";
          events = (fun () -> Ok events);
          metrics_text = (fun () -> Ok "");
        }
      in
      let r = Watch.probe (Watch.handler source) "/healthz" in
      check_int (name ^ ": /healthz status") (if v.healthy then 200 else 503)
        r.Zkflow_obs.Httpd.status;
      match Jsonx.parse r.Zkflow_obs.Httpd.body with
      | Error e -> Alcotest.fail (name ^ ": /healthz body: " ^ e)
      | Ok body ->
        check_bool (name ^ ": /healthz healthy") true
          (Jsonx.member "healthy" body = Some (Jsonx.Bool v.healthy));
        check_bool (name ^ ": /healthz reasons") true
          (Jsonx.member "reasons" body
          = Some (Jsonx.Arr (List.map (fun s -> Jsonx.Str s) expected))))
    cases

(* ---- the SLO engine against its per-window reference ----

   [Slo.evaluate] classifies each event once per spec and answers every
   window count by binary search. The reference below is the
   evaluation it replaced, one pass over the log per count; both must
   render the same [Slo.to_json]. *)

module Slo_reference = struct
  let matches_any patterns kind = List.exists (fun p -> Slo.kind_matches p kind) patterns

  let count_in events ~from_ns ~to_ns patterns =
    List.fold_left
      (fun acc (e : Event.t) ->
        if e.Event.ts_ns >= from_ns && e.Event.ts_ns <= to_ns && matches_any patterns e.Event.kind
        then acc + 1
        else acc)
      0 events

  let burn_rate ~target ~good ~bad =
    let total = good + bad in
    if total = 0 then 0.
    else
      let bad_fraction = float_of_int bad /. float_of_int total in
      let budget = 1. -. target in
      if budget <= 0. then if bad > 0 then infinity else 0. else bad_fraction /. budget

  let eval_window ~now_ns ~start_ns events (spec : Slo.spec) (w : Slo.window) =
    let rate span_s =
      let from_ns = max start_ns (now_ns - int_of_float (span_s *. 1e9)) in
      let good = count_in events ~from_ns ~to_ns:now_ns spec.Slo.good in
      let bad = count_in events ~from_ns ~to_ns:now_ns spec.Slo.bad in
      burn_rate ~target:spec.Slo.target ~good ~bad
    in
    let long_burn = rate w.Slo.long_s and short_burn = rate w.Slo.short_s in
    {
      Slo.window = w;
      long_burn;
      short_burn;
      w_firing = long_burn >= w.Slo.burn_threshold && short_burn >= w.Slo.burn_threshold;
    }

  let causes_of events (spec : Slo.spec) =
    List.filteri
      (fun i _ -> i < 8)
      (List.filter_map
         (fun (e : Event.t) ->
           if matches_any spec.Slo.bad e.Event.kind then
             Some
               {
                 Slo.cause_kind = e.Event.kind;
                 cause_router = e.Event.router;
                 cause_epoch = e.Event.epoch;
                 cause_round = e.Event.round;
               }
           else None)
         events)

  let eval_spec ~now_ns ~start_ns events (spec : Slo.spec) =
    let window_evals = List.map (eval_window ~now_ns ~start_ns events spec) spec.Slo.windows in
    let firing = List.exists (fun we -> we.Slo.w_firing) window_evals in
    {
      Slo.spec;
      good_count = count_in events ~from_ns:start_ns ~to_ns:now_ns spec.Slo.good;
      bad_count = count_in events ~from_ns:start_ns ~to_ns:now_ns spec.Slo.bad;
      window_evals;
      firing;
      causes = (if firing then causes_of events spec else []);
    }

  let first_gap_opens events =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (e : Event.t) ->
        match (e.Event.kind, e.Event.router, e.Event.epoch) with
        | "prover.gap.open", Some router, Some epoch ->
          let fresh = not (Hashtbl.mem seen (router, epoch)) in
          Hashtbl.replace seen (router, epoch) ();
          fresh
        | _ -> true)
      events

  let evaluate events =
    let events = first_gap_opens events in
    let now_ns = List.fold_left (fun acc (e : Event.t) -> max acc e.Event.ts_ns) 0 events in
    let start_ns = List.fold_left (fun acc (e : Event.t) -> min acc e.Event.ts_ns) now_ns events in
    List.map (eval_spec ~now_ns ~start_ns events) Slo.default_specs
end

let slo_json alerts = Jsonx.to_string (Slo.to_json alerts)

let test_slo_fixed_logs () =
  List.iter
    (fun (name, events, _) ->
      Alcotest.(check string) name
        (slo_json (Slo_reference.evaluate events))
        (slo_json (Slo.evaluate events)))
    one_verdict_cases

(* Logs over every kind the default specs read, and some they do not,
   with timestamps spread over hours (so events fall inside and
   outside each window pair), out of order, repeated, and with gaps
   re-announced. *)
let prop_slo_equals_reference =
  let kinds =
    [|
      "board.publish"; "board.reject"; "prover.gap.open"; "prover.gap.heal";
      "prover.round.done"; "prover.round.error"; "prover.query.done"; "prover.query.error";
      "prover.resume"; "verifier.round.accept"; "verifier.query.accept"; "verifier.reject";
      "daemon.ingest.accept"; "daemon.ingest.shed"; "daemon.ingest.duplicate"; "store.window";
      "fault.crash";
    |]
  in
  let event =
    QCheck.Gen.(
      map
        (fun (k, (ts, spread), (router, epoch)) ->
          ev ?router ?epoch ~ts:(ts * spread) "t" kinds.(k))
        (triple
           (int_bound (Array.length kinds - 1))
           (pair (int_bound 10_000) (oneofl [ 1; 1_000_000; 1_000_000_000 ]))
           (pair (opt (int_bound 3)) (opt (int_bound 3)))))
  in
  QCheck.Test.make ~name:"slo evaluate = per-window reference" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 200) event))
    (fun events -> slo_json (Slo_reference.evaluate events) = slo_json (Slo.evaluate events))

(* ---- spans: nesting and parent reconstruction ---- *)

let test_span_parents () =
  Obs.with_enabled (fun () ->
      Span.with_span "outer" (fun () ->
          Span.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1))));
  let events = Span.events () in
  check_int "two spans" 2 (List.length events);
  let outer_idx, inner =
    match events with
    | [ a; b ] when a.Span.name = "outer" -> (0, b)
    | [ a; b ] when b.Span.name = "outer" -> (1, a)
    | _ -> Alcotest.fail "expected outer+inner"
  in
  check_int "inner's parent is outer" outer_idx inner.Span.parent

let test_span_totals () =
  Obs.with_enabled (fun () ->
      Span.with_span "t" (fun () -> ());
      Span.with_span "t" (fun () -> ()));
  match List.assoc_opt "t" (Span.totals ()) with
  | Some (count, total_ns) ->
    check_int "count" 2 count;
    check_bool "total >= 0" true (total_ns >= 0)
  | None -> Alcotest.fail "span total missing"

(* ---- exporters ---- *)

(* Force a real pool: on a single-core box the default is jobs=1 and
   every region would take the sequential path, leaving no pool.region
   span to assert on. *)
let with_jobs j f =
  let module Pool = Zkflow_parallel.Pool in
  let saved = Pool.jobs () in
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

let run_traced_round () =
  with_jobs 2 (fun () ->
      Obs.reset ();
      Obs.enable ();
      let r = prove_once () in
      Obs.disable ();
      r)

let test_trace_json_schema () =
  ignore (run_traced_round ());
  let trace = Export.trace_json () in
  let v =
    match Jsonx.parse trace with
    | Ok v -> v
    | Error e -> Alcotest.fail ("trace does not parse: " ^ e)
  in
  let events =
    match v with Jsonx.Arr l -> l | _ -> Alcotest.fail "trace not an array"
  in
  check_bool "has events" true (events <> []);
  let names = Hashtbl.create 16 in
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          check_bool (Printf.sprintf "event has %S" k) true
            (Jsonx.member k e <> None))
        [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid" ];
      match Jsonx.member "name" e with
      | Some (Jsonx.Str n) -> Hashtbl.replace names n ()
      | _ -> Alcotest.fail "name not a string")
    events;
  check_bool "at least 5 distinct span names" true (Hashtbl.length names >= 5);
  (* the acceptance spans: zkvm + merkle + parallel + proof layers *)
  List.iter
    (fun n ->
      check_bool (n ^ " present") true (Hashtbl.mem names n))
    [ "zkvm.run"; "merkle.build"; "pool.region"; "zkproof.prove"; "agg.round" ]

let test_stats_json_parses () =
  ignore (run_traced_round ());
  (match Jsonx.parse (Export.stats_json ()) with
  | Ok (Jsonx.Obj fields) ->
    List.iter
      (fun k -> check_bool (k ^ " present") true (List.mem_assoc k fields))
      [ "counters"; "histograms"; "spans" ]
  | Ok _ -> Alcotest.fail "stats not an object"
  | Error e -> Alcotest.fail ("stats does not parse: " ^ e));
  (* the headline counters moved *)
  let counters = Metric.counters () in
  List.iter
    (fun name ->
      match List.assoc_opt name counters with
      | Some v -> check_bool (name ^ " > 0") true (v > 0)
      | None -> Alcotest.fail (name ^ " not registered"))
    [ "sha256.compressions"; "merkle.nodes_hashed"; "zkvm.cycles" ]

(* The hash counters count exactly one per compression and one per
   filled slot, so their deltas are exact. A build over n leaves padded
   to P fills n + P − 1 slots; each is hashed or copied from its left
   neighbour. A short leaf hashes in one compression. A node costs two
   under the SHA-256 rule and one under the trace-commitment rule, so
   each rule has its own compression literals; the slot counts are the
   same. For n = 1000 the padding copies 11 + 5 + 2 slots on levels
   1–3; four runs of four equal leaves copy 12 leaves and 4 level-1
   nodes. A path check hashes one leaf and one node per level. *)
let test_hash_counters_exact () =
  let module Tree = Zkflow_merkle.Tree in
  let module Proof = Zkflow_merkle.Proof in
  let compressions = Metric.counter "sha256.compressions"
  and hashed = Metric.counter "merkle.nodes_hashed"
  and copied = Metric.counter "merkle.nodes_copied" in
  let delta f =
    let c0 = Metric.value compressions
    and h0 = Metric.value hashed
    and k0 = Metric.value copied in
    let r = f () in
    (r, Metric.value compressions - c0, Metric.value hashed - h0, Metric.value copied - k0)
  in
  let leaves n f = Array.init n (fun i -> Bytes.of_string (Printf.sprintf "leaf-%d" (f i))) in
  Obs.with_enabled (fun () ->
      List.iter
        (fun ((rule, node, per_node), (what, data, want_c, want_h, want_k)) ->
          let n = Array.length data in
          let tag s = Printf.sprintf "%s %s %s" rule what s in
          let col = Zkflow_util.Column.of_array data in
          let tree, c, h, k = delta (fun () -> Tree.of_leaves ~node col) in
          check_int (tag "compressions") want_c c;
          check_int (tag "nodes hashed") want_h h;
          check_int (tag "nodes copied") want_k k;
          check_int (tag "hashed + copied = n + P - 1") (n + Tree.next_pow2 n - 1) (h + k);
          let proof = Tree.prove tree (n - 1) in
          let ok, c, h, k =
            delta (fun () ->
                Proof.verify_data ~node ~root:(Tree.root tree) data.(n - 1) proof)
          in
          check_bool "path verifies" true ok;
          check_int (tag "verify_data compressions")
            (1 + (per_node * Proof.depth proof))
            c;
          check_int "verify_data counts no tree nodes" 0 (h + k))
        (List.map (fun case -> (("digest64", Zkflow_hash.Sha256.digest64, 2), case))
           [
             ("n=5", leaves 5 Fun.id, 19, 12, 0);
             ("n=1000", leaves 1000 Fun.id, 3010, 2005, 18);
             ("4 runs of 4", leaves 16 (fun i -> i / 4), 26, 15, 16);
           ]
        @ List.map (fun case -> (("node64", Zkflow_hash.Sha256.node64, 1), case))
            [
              ("n=5", leaves 5 Fun.id, 12, 12, 0);
              ("n=1000", leaves 1000 Fun.id, 2005, 2005, 18);
              ("4 runs of 4", leaves 16 (fun i -> i / 4), 15, 15, 16);
            ]))

let test_prometheus_mentions_metrics () =
  ignore (run_traced_round ());
  let text = Export.prometheus () in
  List.iter
    (fun needle ->
      check_bool (needle ^ " in prometheus dump") true (contains ~needle text))
    [ "zkflow_sha256_compressions"; "zkflow_span_seconds_total" ]

(* ---- differential: the event log never changes proof outputs ---- *)

(* A full pipeline pass — insert, publish, aggregate, query — run
   twice from the same seed: once with the flight recorder off, once
   on. Receipts, roots, and journals must be bit-identical; only the
   event log differs. *)
let pipeline_pass () =
  let d = Zkflow.deploy ~proof_params:params () in
  let rng = Zkflow_util.Rng.create 0xf11e5L in
  let records = Gen.records rng Gen.default_profile ~router_id:0 ~count:6 in
  Array.iter (fun r -> Zkflow_store.Db.insert d.Zkflow.db r) records;
  let epoch = List.hd (Zkflow_store.Db.epochs d.Zkflow.db) in
  (match Prover_service.publish_epoch d.Zkflow.service ~epoch with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let round =
    match Prover_service.aggregate_available d.Zkflow.service ~epoch with
    | Ok (Prover_service.Complete r) -> r
    | Ok _ -> Alcotest.fail "a window went uncovered"
    | Error e -> Alcotest.fail e
  in
  let row =
    match Prover_service.query d.Zkflow.service Query.flow_count with
    | Ok row -> row
    | Error e -> Alcotest.fail e
  in
  (round, row)

let test_differential_pipeline_events () =
  Obs.reset ();
  Obs.disable ();
  let off_round, off_q = pipeline_pass () in
  check_int "no events while disabled" 0 (List.length (Event.events ()));
  let on_round, on_q = Obs.with_enabled pipeline_pass in
  check_bool "round receipt bit-identical" true
    (Zkflow_zkproof.Receipt.encode off_round.Aggregate.receipt
    = Zkflow_zkproof.Receipt.encode on_round.Aggregate.receipt);
  Alcotest.check digest "clog root identical"
    (Clog.root off_round.Aggregate.clog)
    (Clog.root on_round.Aggregate.clog);
  Alcotest.check digest "journal root identical"
    off_round.Aggregate.journal.Guests.new_root
    on_round.Aggregate.journal.Guests.new_root;
  check_bool "query receipt bit-identical" true
    (Zkflow_zkproof.Receipt.encode off_q.Query.receipt
    = Zkflow_zkproof.Receipt.encode on_q.Query.receipt);
  (* and the enabled run actually recorded the pipeline story *)
  let kinds =
    List.sort_uniq String.compare
      (List.map (fun e -> e.Event.kind) (Event.events ()))
  in
  List.iter
    (fun k -> check_bool (k ^ " recorded") true (List.mem k kinds))
    [ "board.publish"; "store.window"; "prover.round.start"; "prover.round.done";
      "prover.query.done" ]

let test_tamper_reject_event () =
  Obs.reset ();
  let outcome = Obs.with_enabled Tamper.forge_query_state in
  check_bool "tamper detected" true outcome.Tamper.detected;
  let rejects =
    List.filter (fun e -> e.Event.kind = "verifier.reject") (Event.events ())
  in
  check_bool "rejection recorded" true (rejects <> []);
  check_bool "cause named" true
    (List.exists
       (fun e -> List.assoc_opt "check" e.Event.attrs = Some (Jsonx.Str "query.root"))
       rejects);
  (* the health report surfaces it by cause *)
  let r = Monitor.build (Event.events ()) in
  check_bool "monitor counts the rejection" true
    (List.assoc_opt "query.root" r.Monitor.verifier_rejects = Some 1);
  check_bool "monitor reports degraded" true
    (List.mem "verifier-acceptance" r.Monitor.verdict.Monitor.reasons)

(* ---- restored marker through the checkpoint journal ---- *)

let test_restored_round_marker () =
  Obs.disable ();
  let d = Zkflow.deploy ~proof_params:params () in
  let path = Filename.temp_file "zkflow_obs" ".wal" in
  Sys.remove path;
  Prover_service.with_checkpoints d.Zkflow.service ~path;
  let rng = Zkflow_util.Rng.create 77L in
  let records = Gen.records rng Gen.default_profile ~router_id:0 ~count:6 in
  Array.iter (fun r -> Zkflow_store.Db.insert d.Zkflow.db r) records;
  let epoch = List.hd (Zkflow_store.Db.epochs d.Zkflow.db) in
  (match Prover_service.publish_epoch d.Zkflow.service ~epoch with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let round =
    match Prover_service.aggregate_available d.Zkflow.service ~epoch with
    | Ok (Prover_service.Complete r) -> r
    | Ok _ -> Alcotest.fail "a window went uncovered"
    | Error e -> Alcotest.fail e
  in
  check_bool "fresh round not restored" false round.Aggregate.restored;
  let loaded =
    match
      Prover_service.restore ~db:d.Zkflow.db ~board:d.Zkflow.board ~path ()
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  (match Prover_service.rounds loaded with
  | [ r ] ->
    check_bool "loaded round restored" true r.Aggregate.restored;
    Alcotest.check digest "loaded root" (Clog.root round.Aggregate.clog)
      (Clog.root r.Aggregate.clog)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 round, got %d" (List.length rs)));
  (match Prover_service.summaries loaded with
  | [ s ] ->
    check_bool "summary restored flag" true s.Prover_service.restored;
    check_int "summary entries" (Clog.length round.Aggregate.clog)
      s.Prover_service.entries
  | _ -> Alcotest.fail "expected 1 summary");
  (* the spot-check count is the seal's, not the restoring service's *)
  Alcotest.(check (list (pair int (list int))))
    "seal queries" [ (8, [ 0 ]) ]
    (Prover_service.seal_queries loaded);
  match Jsonx.parse (Prover_service.summary_json loaded) with
  | Ok v ->
    check_bool "summary_json has rounds" true (Jsonx.member "rounds" v <> None)
  | Error e -> Alcotest.fail ("summary_json does not parse: " ^ e)

let () =
  Alcotest.run "zkflow_obs"
    [
      ( "differential",
        [
          Alcotest.test_case "receipts identical on/off" `Quick
            test_differential_receipts;
          Alcotest.test_case "pipeline identical with event log" `Quick
            test_differential_pipeline_events;
          Alcotest.test_case "tamper rejection reaches the flight log" `Quick
            test_tamper_reject_event;
        ] );
      ( "metric",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_counter_disabled_noop;
          Alcotest.test_case "counter sums across domains" `Quick
            test_counter_multidomain;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "reset zeroes" `Quick test_reset_zeroes;
          Alcotest.test_case "percentiles from log2 buckets" `Quick test_percentile;
          Alcotest.test_case "percentile of equal values is exact" `Quick
            test_percentile_all_equal;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "event log torn at every byte offset" `Quick
            test_event_load_torn_tail;
        ] );
      ( "httpd",
        [
          Alcotest.test_case "GET round-trip, 404, handler raise" `Quick
            test_httpd_roundtrip;
          Alcotest.test_case "request target parsing" `Quick
            test_httpd_request_of_target;
          Alcotest.test_case "503 past the connection cap" `Quick
            test_httpd_saturation;
          Alcotest.test_case "408 on stalled client" `Quick
            test_httpd_read_deadline;
        ] );
      ( "event",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_event_disabled_noop;
          Alcotest.test_case "fields and attrs" `Quick test_event_fields;
          Alcotest.test_case "ring drops oldest" `Quick test_event_ring_drops_oldest;
          Alcotest.test_case "json round-trip and flush" `Quick
            test_event_json_roundtrip;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "lag and gap detection" `Quick test_monitor_lag_and_gaps;
          Alcotest.test_case "rounds, latency, rejects by cause" `Quick
            test_monitor_rounds_and_rejects;
          Alcotest.test_case "trend of rounds" `Quick test_trend_of_rounds;
          Alcotest.test_case "one verdict on every surface" `Quick test_one_verdict;
          Alcotest.test_case "slo evaluate on the fixed logs" `Quick test_slo_fixed_logs;
          QCheck_alcotest.to_alcotest prop_slo_equals_reference;
        ] );
      ( "span",
        [
          Alcotest.test_case "parent reconstruction" `Quick test_span_parents;
          Alcotest.test_case "totals" `Quick test_span_totals;
        ] );
      ( "export",
        [
          Alcotest.test_case "trace_event schema" `Quick test_trace_json_schema;
          Alcotest.test_case "stats json" `Quick test_stats_json_parses;
          Alcotest.test_case "hash counters exact" `Quick test_hash_counters_exact;
          Alcotest.test_case "prometheus" `Quick test_prometheus_mentions_metrics;
          Alcotest.test_case "prometheus quantiles" `Quick test_prometheus_quantiles;
        ] );
      ( "service",
        [
          Alcotest.test_case "restored marker survives restore" `Quick
            test_restored_round_marker;
        ] );
    ]
