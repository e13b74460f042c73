(* SLO burn-rate engine tests over synthetic event logs.

   The contract under test: an alert fires only when BOTH windows of a
   pair burn past the threshold (the short window is the de-bounce),
   windows clamp to the log's own span so a 40-second chaos run still
   registers a massive burn on its "1 h" window, and every firing
   alert names the causal keys of the bad events behind it. Plus the
   data plumbing around the engine: glob matching on event kinds, the
   fault-marker -> expected-objective map the chaos harness asserts
   with, and the /slo endpoint schema. *)

module Event = Zkflow_obs.Event
module Jsonx = Zkflow_util.Jsonx
open Zkflow_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let ev ?router ?epoch ?round ~ts track kind =
  { Event.ts_ns = ts; track; kind; router; epoch; round; query = None; attrs = [] }

(* seconds -> the recorder's ns timestamps *)
let s n = n * 1_000_000_000

(* ---- glob matching on event kinds ---- *)

let test_kind_matches () =
  let yes p k = check_bool (p ^ " ~ " ^ k) true (Slo.kind_matches p k) in
  let no p k = check_bool (p ^ " !~ " ^ k) false (Slo.kind_matches p k) in
  yes "board.publish" "board.publish";
  no "board.publish" "board.publish2";
  no "board.publish" "board";
  yes "*" "anything.at.all";
  yes "*" "";
  (* prefix glob is anchored at the start *)
  yes "prover.*" "prover.round.done";
  yes "prover.*" "prover.";
  no "prover.*" "xprover.round.done";
  (* suffix glob is anchored at the end *)
  yes "*.accept" "verifier.query.accept";
  no "*.accept" "verifier.accepted";
  (* a middle glob must consume at least the text around it *)
  yes "verifier.*.accept" "verifier.round.accept";
  yes "verifier.*.accept" "verifier.x.y.accept";
  no "verifier.*.accept" "verifier.accept";
  no "verifier.*.accept" "verifier.round.reject"

(* ---- burn math and firing over synthetic logs ---- *)

let coverage_spec =
  {
    Slo.slo_name = "test-coverage";
    good = [ "board.publish" ];
    bad = [ "prover.gap.open" ];
    target = 0.999;
    windows = Slo.default_windows;
  }

let find_alert name alerts =
  match List.find_opt (fun a -> a.Slo.spec.Slo.slo_name = name) alerts with
  | Some a -> a
  | None -> Alcotest.fail ("no alert named " ^ name)

let test_clean_log_burns_nothing () =
  let events =
    List.init 10 (fun i -> ev ~router:(i mod 2) ~epoch:i ~ts:(s (i * 4)) "board" "board.publish")
  in
  let a = find_alert "test-coverage" (Slo.evaluate ~specs:[ coverage_spec ] events) in
  check_int "good" 10 a.Slo.good_count;
  check_int "bad" 0 a.Slo.bad_count;
  check_bool "not firing" false a.Slo.firing;
  List.iter
    (fun we ->
      check_bool (we.Slo.window.Slo.w_name ^ " long burn 0") true (we.Slo.long_burn = 0.);
      check_bool (we.Slo.window.Slo.w_name ^ " short burn 0") true (we.Slo.short_burn = 0.))
    a.Slo.window_evals;
  check_bool "nothing firing" true (Slo.firing_names (Slo.evaluate ~specs:[ coverage_spec ] events) = [])

(* One dropped export among 9 publishes inside a 40-second log: both
   the "1 h" and the "5 m" window clamp to those 40 seconds, the bad
   fraction is 0.1 against a 0.001 budget — burn 100, far past both
   thresholds. This is the clamping property: short chaos runs still
   register. *)
let test_one_gap_fires_with_causal_keys () =
  let events =
    List.init 9 (fun i -> ev ~router:(i mod 2) ~epoch:i ~ts:(s (i * 4)) "board" "board.publish")
    @ [ ev ~router:1 ~epoch:3 ~ts:(s 38) "prover" "prover.gap.open" ]
  in
  let a = find_alert "test-coverage" (Slo.evaluate ~specs:[ coverage_spec ] events) in
  check_int "good" 9 a.Slo.good_count;
  check_int "bad" 1 a.Slo.bad_count;
  check_bool "firing" true a.Slo.firing;
  List.iter
    (fun we ->
      check_bool (we.Slo.window.Slo.w_name ^ " fires") true we.Slo.w_firing;
      check_bool "burn = bad_fraction / budget" true (abs_float (we.Slo.long_burn -. 100.) < 1e-6))
    a.Slo.window_evals;
  (* the alert names the export that opened the gap *)
  match a.Slo.causes with
  | [ c ] ->
    Alcotest.(check string) "cause kind" "prover.gap.open" c.Slo.cause_kind;
    Alcotest.(check (option int)) "cause router" (Some 1) c.Slo.cause_router;
    Alcotest.(check (option int)) "cause epoch" (Some 3) c.Slo.cause_epoch
  | cs -> Alcotest.fail (Printf.sprintf "expected 1 cause, got %d" (List.length cs))

(* The de-bounce: a gap that opened half an hour ago in a long healthy
   log burns the long window but not the short one — no alert. The
   short window is what makes alerts stop firing after the cause
   does. *)
let test_old_fault_does_not_fire () =
  let goods =
    List.init 21 (fun i -> ev ~epoch:i ~ts:(s (i * 100)) "board" "board.publish")
  in
  let events = ev ~epoch:0 ~ts:(s 1) "prover" "prover.gap.open" :: goods in
  let a = find_alert "test-coverage" (Slo.evaluate ~specs:[ coverage_spec ] events) in
  check_bool "not firing" false a.Slo.firing;
  let fast =
    match List.find_opt (fun we -> we.Slo.window.Slo.w_name = "fast") a.Slo.window_evals with
    | Some we -> we
    | None -> Alcotest.fail "no fast window"
  in
  (* the long window saw the bad event, the 5-minute short one did not *)
  check_bool "long window burns past threshold" true
    (fast.Slo.long_burn >= fast.Slo.window.Slo.burn_threshold);
  check_bool "short window clean" true (fast.Slo.short_burn = 0.);
  check_bool "pair gated on both" false fast.Slo.w_firing

(* A gap counts once however often it is announced (a restart
   re-announces the gaps it restores): the old gap of the de-bounce
   case, re-announced inside the short window, still does not fire;
   a different export's gap does, and each gap is named once. *)
let test_reannounced_gap_counts_once () =
  let goods =
    List.init 21 (fun i -> ev ~epoch:i ~ts:(s (i * 100)) "board" "board.publish")
  in
  let gap ~router ts = ev ~router ~epoch:0 ~ts:(s ts) "prover" "prover.gap.open" in
  let events = (gap ~router:1 1 :: goods) @ [ gap ~router:1 1990; gap ~router:1 1995 ] in
  let a = find_alert "test-coverage" (Slo.evaluate ~specs:[ coverage_spec ] events) in
  check_int "one bad event" 1 a.Slo.bad_count;
  check_bool "re-announced old gap does not fire" false a.Slo.firing;
  let events = events @ [ gap ~router:2 1996; gap ~router:1 1997 ] in
  let a = find_alert "test-coverage" (Slo.evaluate ~specs:[ coverage_spec ] events) in
  check_int "distinct gaps count apart" 2 a.Slo.bad_count;
  check_bool "a new gap fires" true a.Slo.firing;
  Alcotest.(check (list (option int)))
    "each gap named once" [ Some 1; Some 2 ]
    (List.map (fun c -> c.Slo.cause_router) a.Slo.causes)

let test_empty_log () =
  let alerts = Slo.evaluate [] in
  check_int "every default spec evaluated" 6 (List.length alerts);
  check_bool "nothing fires on silence" true (Slo.firing alerts = [])

(* ---- fault markers -> expected objectives ---- *)

let test_expected_for () =
  let fault kind = ev ~ts:(s 1) "fault" kind in
  Alcotest.(check (list string)) "all surfaces, sorted + deduped"
    [ "board-integrity"; "coverage"; "prover-restarts" ]
    (Slo.expected_for
       [
         fault "fault.drop";
         fault "fault.delay";
         fault "fault.duplicate";
         fault "fault.crash";
         ev ~ts:(s 2) "board" "board.publish";
       ]);
  Alcotest.(check (list string)) "delay alone maps to coverage" [ "coverage" ]
    (Slo.expected_for [ fault "fault.delay" ]);
  Alcotest.(check (list string)) "clean log expects nothing" []
    (Slo.expected_for [ ev ~ts:(s 1) "board" "board.publish" ])

(* Re-offered windows after a restart come back Duplicate: they use
   no queue capacity and lose no data, so only sheds burn the
   ingest-admission budget. *)
let test_ingest_duplicates_are_not_bad () =
  let ingest i kind = ev ~router:(i mod 3) ~epoch:i ~ts:(s i) "daemon" kind in
  let accepts = List.init 6 (fun i -> ingest i "daemon.ingest.accept") in
  let dups = List.init 6 (fun i -> ingest (10 + i) "daemon.ingest.duplicate") in
  let fires events =
    List.mem "ingest-admission" (Slo.firing_names (Slo.evaluate events))
  in
  let a = find_alert "ingest-admission" (Slo.evaluate (accepts @ dups)) in
  check_int "duplicates are not bad" 0 a.Slo.bad_count;
  check_bool "accepts + duplicates do not fire" false (fires (accepts @ dups));
  let sheds = List.init 3 (fun i -> ingest (20 + i) "daemon.ingest.shed") in
  check_bool "sheds fire" true (fires (accepts @ dups @ sheds))

(* ---- the /slo endpoint schema ---- *)

let test_to_json_schema () =
  let firing_events =
    List.init 9 (fun i -> ev ~epoch:i ~ts:(s (i * 4)) "board" "board.publish")
    @ [ ev ~router:1 ~epoch:3 ~ts:(s 38) "prover" "prover.gap.open" ]
  in
  let alerts = Slo.evaluate firing_events in
  let v =
    match Jsonx.parse (Jsonx.to_string (Slo.to_json alerts)) with
    | Ok v -> v
    | Error e -> Alcotest.fail ("slo json does not parse: " ^ e)
  in
  check_bool "schema" true
    (Jsonx.member "schema" v = Some (Jsonx.Str "zkflow-slo/v1"));
  check_bool "not ok" true (Jsonx.member "ok" v = Some (Jsonx.Bool false));
  (match Jsonx.member "firing" v with
  | Some (Jsonx.Arr names) ->
    check_bool "coverage listed firing" true (List.mem (Jsonx.Str "coverage") names)
  | _ -> Alcotest.fail "no firing list");
  (match Jsonx.member "alerts" v with
  | Some (Jsonx.Arr alerts) -> check_int "one alert per default spec" 6 (List.length alerts)
  | _ -> Alcotest.fail "no alerts list");
  (* and a clean log is ok: true with an empty firing list *)
  let clean = List.init 4 (fun i -> ev ~epoch:i ~ts:(s i) "board" "board.publish") in
  match Jsonx.parse (Jsonx.to_string (Slo.to_json (Slo.evaluate clean))) with
  | Ok v ->
    check_bool "ok" true (Jsonx.member "ok" v = Some (Jsonx.Bool true));
    check_bool "firing empty" true (Jsonx.member "firing" v = Some (Jsonx.Arr []))
  | Error e -> Alcotest.fail ("clean slo json does not parse: " ^ e)

let () =
  Alcotest.run "zkflow_slo"
    [
      ( "glob",
        [ Alcotest.test_case "kind_matches anchoring" `Quick test_kind_matches ] );
      ( "burn",
        [
          Alcotest.test_case "clean log burns nothing" `Quick
            test_clean_log_burns_nothing;
          Alcotest.test_case "one gap fires both windows with causes" `Quick
            test_one_gap_fires_with_causal_keys;
          Alcotest.test_case "old fault: long burns, short de-bounces" `Quick
            test_old_fault_does_not_fire;
          Alcotest.test_case "re-announced gap counts once" `Quick
            test_reannounced_gap_counts_once;
          Alcotest.test_case "empty log" `Quick test_empty_log;
        ] );
      ( "chaos-contract",
        [
          Alcotest.test_case "fault markers map to objectives" `Quick test_expected_for;
          Alcotest.test_case "ingest duplicates are not bad" `Quick
            test_ingest_duplicates_are_not_bad;
        ] );
      ( "endpoint",
        [ Alcotest.test_case "/slo schema" `Quick test_to_json_schema ] );
    ]
