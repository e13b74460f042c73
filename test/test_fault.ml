(* Fault injection + crash consistency: plan codecs, crash/fail hooks,
   retry backoff determinism, kill/resume at every catalogued crash
   site (final root bit-identical to the uninterrupted twin — the
   ISSUE's acceptance assertion), storage corruption recovery,
   degraded rounds with gap journal + heal, coverage verification, and
   full Chaos.run cycles against the resident daemon. *)

module D = Zkflow_hash.Digest32
module Record = Zkflow_netflow.Record
module Gen = Zkflow_netflow.Gen
module Db = Zkflow_store.Db
module Wal = Zkflow_store.Wal
module Board = Zkflow_commitlog.Board
module Fault = Zkflow_fault.Fault
module Rng = Zkflow_util.Rng
open Zkflow_core

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let digest = Alcotest.testable D.pp D.equal
let params = Zkflow_zkproof.Params.make ~queries:8

(* One epoch's round through the one round entry point, which must
   cover every window of the epoch. *)
let aggregate service ~epoch =
  match Prover_service.aggregate_available service ~epoch with
  | Ok (Prover_service.Complete round) -> Ok round
  | Ok _ -> Error (Printf.sprintf "epoch %d: a window went uncovered" epoch)
  | Error e -> Error e

let with_tmp f =
  let path = Filename.temp_file "zkflow_fault" ".wal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () ->
      Sys.remove path;
      f path)

(* Every test that arms hooks must disarm on the way out, or a failing
   assertion would leak crashes into unrelated tests. *)
let with_plan plan f =
  Fault.install plan;
  Fun.protect ~finally:Fault.clear f

let plan ?(seed = 0) ?(name = "test") faults = { Fault.seed; name; faults }

(* ---- plan codec ---- *)

let sample_plan =
  plan ~seed:42 ~name:"kitchen-sink"
    [
      Fault.Drop { router = 1; epoch = 0 };
      Fault.Delay { router = 2; epoch = 1 };
      Fault.Duplicate { router = 0; epoch = 0 };
      Fault.Crash_at { site = "agg.pre_checkpoint"; hits = 2 };
      Fault.Flaky { site = "agg.fetch"; failures = 3 };
      Fault.Torn_write { target = "checkpoint"; drop_bytes = 7 };
      Fault.Bit_flip { target = "checkpoint" };
      Fault.Flood { windows = 9; capacity = 4 };
    ]

let test_plan_json_roundtrip () =
  match Fault.plan_of_string (Fault.plan_to_string sample_plan) with
  | Error e -> Alcotest.fail e
  | Ok p ->
    check_bool "roundtrip" true (p = sample_plan);
    check_int "seed" 42 p.Fault.seed;
    check_string "name" "kitchen-sink" p.Fault.name

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_plan_rejects_garbage () =
  check_bool "not json" true (Result.is_error (Fault.plan_of_string "]["));
  check_bool "wrong shape" true
    (Result.is_error (Fault.plan_of_string {|{"seed": "nope"}|}))

let test_plan_file_roundtrip () =
  with_tmp (fun path ->
      let oc = open_out path in
      output_string oc (Fault.plan_to_string sample_plan);
      close_out oc;
      match Fault.load_plan path with
      | Ok p -> check_bool "loaded" true (p = sample_plan)
      | Error e -> Alcotest.fail e)

let test_random_plan_deterministic () =
  let a = Fault.random_plan ~routers:3 ~epochs:3 ~seed:7 () in
  let b = Fault.random_plan ~routers:3 ~epochs:3 ~seed:7 () in
  let c = Fault.random_plan ~routers:3 ~epochs:3 ~seed:8 () in
  check_bool "same seed, same plan" true (a = b);
  check_bool "different seed, different plan" true (a <> c);
  check_bool "nonempty" true (a.Fault.faults <> [])

let kind_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun r e -> Fault.Drop { router = r; epoch = e }) (int_bound 7) (int_bound 7);
        map2 (fun r e -> Fault.Delay { router = r; epoch = e }) (int_bound 7) (int_bound 7);
        map2
          (fun r e -> Fault.Duplicate { router = r; epoch = e })
          (int_bound 7) (int_bound 7);
        map2
          (fun site h -> Fault.Crash_at { site; hits = h + 1 })
          (oneofl Fault.crash_site_catalogue)
          (int_bound 3);
        map2
          (fun site f -> Fault.Flaky { site; failures = f + 1 })
          (oneofl [ "agg.fetch"; "store.read" ])
          (int_bound 4);
        map
          (fun n -> Fault.Torn_write { target = "checkpoint"; drop_bytes = n + 1 })
          (int_bound 64);
        return (Fault.Bit_flip { target = "checkpoint" });
      ])

let plan_arb =
  QCheck.make
    ~print:(fun p -> Fault.plan_to_string p)
    QCheck.Gen.(
      map2
        (fun seed faults -> { Fault.seed; name = "qc"; faults })
        (int_bound 10_000)
        (list_size (int_bound 8) kind_gen))

let qcheck_plan_roundtrip =
  QCheck.Test.make ~count:200 ~name:"plan json roundtrip" plan_arb (fun p ->
      Fault.plan_of_string (Fault.plan_to_string p) = Ok p)

(* ---- crash/fail hooks ---- *)

let test_crashpoint_countdown () =
  with_plan (plan [ Fault.Crash_at { site = "t.site"; hits = 2 } ]) (fun () ->
      check_bool "armed" true (Fault.armed ());
      Fault.crashpoint "t.site";
      Fault.crashpoint "t.other";
      (try
         Fault.crashpoint "t.site";
         Alcotest.fail "second pass should crash"
       with Fault.Crash site -> check_string "payload is site" "t.site" site);
      (* disarm-before-raise: the site never fires twice *)
      Fault.crashpoint "t.site");
  check_bool "cleared" false (Fault.armed ());
  Fault.crashpoint "t.site"

let test_failpoint_budget () =
  with_plan (plan [ Fault.Flaky { site = "t.flaky"; failures = 2 } ]) (fun () ->
      check_bool "fail 1" true (Result.is_error (Fault.failpoint "t.flaky"));
      check_bool "fail 2" true (Result.is_error (Fault.failpoint "t.flaky"));
      check_bool "then ok" true (Fault.failpoint "t.flaky" = Ok ());
      check_bool "other sites ok" true (Fault.failpoint "t.other" = Ok ()))

let test_retry_recovers_and_is_deterministic () =
  let run () =
    let sleeps = ref [] in
    let calls = ref 0 in
    with_plan (plan [ Fault.Flaky { site = "t.retry"; failures = 3 } ]) (fun () ->
        let r =
          Fault.Retry.with_backoff
            ~sleep:(fun s -> sleeps := s :: !sleeps)
            ~rng:(Rng.create 5L) ~label:"t.retry"
            (fun () ->
              incr calls;
              Result.map (fun () -> "done") (Fault.failpoint "t.retry"))
        in
        (r, !calls, List.rev !sleeps))
  in
  let r1, calls1, sleeps1 = run () in
  let r2, calls2, sleeps2 = run () in
  check_bool "recovered" true (r1 = Ok "done");
  check_int "3 failures + 1 success" 4 calls1;
  check_int "one sleep per retry" 3 (List.length sleeps1);
  check_bool "jitter bounded" true
    (List.for_all (fun s -> s >= 0.0 && s <= 0.05) sleeps1);
  check_bool "same seed, same schedule" true (calls1 = calls2 && sleeps1 = sleeps2);
  check_bool "same result" true (r1 = r2)

let test_retry_exhaustion () =
  with_plan (plan [ Fault.Flaky { site = "t.dead"; failures = 99 } ]) (fun () ->
      match
        Fault.Retry.with_backoff ~max_attempts:3 ~rng:(Rng.create 1L)
          ~label:"t.dead" (fun () -> Fault.failpoint "t.dead")
      with
      | Ok () -> Alcotest.fail "should exhaust"
      | Error e -> check_bool "error names the label" true (contains ~needle:"t.dead" e))

let test_retry_zero_attempt_budget () =
  (* A budget of zero attempts is a caller bug, not a quiet no-op. *)
  match
    Fault.Retry.with_backoff ~max_attempts:0 ~rng:(Rng.create 1L) ~label:"t.zero"
      (fun () -> Ok ())
  with
  | exception Invalid_argument _ -> ()
  | Ok () -> Alcotest.fail "zero-attempt budget must not succeed"
  | Error e -> Alcotest.fail ("expected Invalid_argument, got Error " ^ e)

let test_retry_exhaustion_surfaces_last_error () =
  (* The error the caller sees is the edge's own last failure, with the
     give-up count appended — not a generic retry message. *)
  let attempt = ref 0 in
  match
    Fault.Retry.with_backoff ~max_attempts:3 ~rng:(Rng.create 2L) ~label:"t.last"
      (fun () ->
        incr attempt;
        Error (Printf.sprintf "edge failure #%d" !attempt))
  with
  | Ok () -> Alcotest.fail "should exhaust"
  | Error e ->
    check_bool "carries the last underlying error" true
      (contains ~needle:"edge failure #3" e);
    check_bool "reports the attempt budget" true
      (contains ~needle:"gave up after 3 attempts" e)

let test_retry_backoff_ceiling () =
  (* Many retries with a tiny cap: every jittered sleep must stay under
     [max_ms], however far the exponential doubling has run. *)
  let sleeps = ref [] in
  (match
     Fault.Retry.with_backoff ~max_attempts:12 ~base_ms:1. ~max_ms:4.
       ~sleep:(fun s -> sleeps := s :: !sleeps)
       ~rng:(Rng.create 7L) ~label:"t.ceiling"
       (fun () -> Error "always down")
   with
  | Ok () -> Alcotest.fail "should exhaust"
  | Error _ -> ());
  check_int "one sleep per non-final attempt" 11 (List.length !sleeps);
  check_bool "all sleeps under the 4ms cap" true
    (List.for_all (fun s -> s >= 0. && s <= 0.004) !sleeps)

(* ---- crash/resume: bit-identical roots at every catalogued site ---- *)

let load_epoch db ~epoch ~routers ~per_router ~seed =
  for r = 0 to routers - 1 do
    let records =
      Gen.records
        (Rng.create (Int64.of_int (seed + (1000 * r) + epoch)))
        Gen.default_profile ~router_id:r ~count:per_router
    in
    Array.iter
      (fun rc ->
        Db.insert db
          (Record.make ~key:rc.Record.key ~first_ts:(epoch * 5000)
             ~last_ts:((epoch * 5000) + 100) ~router_id:r rc.Record.metrics))
      records
  done

let fresh_world ~seed =
  let db = Db.create ~epoch:Zkflow_store.Epoch.default () in
  load_epoch db ~epoch:0 ~routers:2 ~per_router:3 ~seed;
  load_epoch db ~epoch:1 ~routers:2 ~per_router:3 ~seed:(seed + 100);
  let board = Board.create () in
  (db, board, Prover_service.create ~proof_params:params ~db ~board ())

(* Publish + aggregate the epochs in order, restarting from the
   checkpoint journal every time an armed crash site kills us. *)
let drive_with_restarts ~db ~board ~path service epochs =
  let resumes = ref 0 in
  let rec go service epochs =
    match epochs with
    | [] -> service
    | e :: rest -> (
      match
        (try
           ignore (Result.get_ok (Prover_service.publish_epoch service ~epoch:e));
           ignore (Result.get_ok (aggregate service ~epoch:e));
           `Done
         with Fault.Crash _ -> `Crashed)
      with
      | `Done -> go service rest
      | `Crashed ->
        Prover_service.abandon service;
        incr resumes;
        if !resumes > 10 then Alcotest.fail "restart budget exhausted";
        let service', _restored =
          Result.get_ok (Prover_service.resume ~proof_params:params ~db ~board ~path ())
        in
        let covered = Prover_service.covered_epochs service' in
        go service' (List.filter (fun e -> not (List.mem e covered)) (e :: rest)))
  in
  let final = go service epochs in
  (final, !resumes)

let twin_root ~seed =
  let _, _, twin = fresh_world ~seed in
  ignore (Result.get_ok (Prover_service.publish_epoch twin ~epoch:0));
  ignore (Result.get_ok (aggregate twin ~epoch:0));
  ignore (Result.get_ok (Prover_service.publish_epoch twin ~epoch:1));
  ignore (Result.get_ok (aggregate twin ~epoch:1));
  Prover_service.latest_root twin

let test_kill_resume_every_site () =
  let expected = twin_root ~seed:60 in
  List.iter
    (fun site ->
      with_tmp (fun path ->
          let db, board, service = fresh_world ~seed:60 in
          Prover_service.with_checkpoints service ~path;
          with_plan (plan [ Fault.Crash_at { site; hits = 2 } ]) (fun () ->
              let final, resumes =
                drive_with_restarts ~db ~board ~path service [ 0; 1 ]
              in
              check_bool (site ^ ": crashed at least once") true (resumes >= 1);
              check_int (site ^ ": both rounds present") 2
                (List.length (Prover_service.rounds final));
              Alcotest.check digest (site ^ ": root bit-identical to twin") expected
                (Prover_service.latest_root final);
              (* and the resumed history verifies end to end *)
              let receipts =
                List.mapi
                  (fun i (r : Aggregate.round) -> (i, r.Aggregate.receipt))
                  (Prover_service.rounds final)
              in
              match Verifier_client.verify_chain ~board receipts with
              | Ok chain ->
                Alcotest.check digest (site ^ ": chain root") expected
                  chain.Verifier_client.final_root
              | Error e -> Alcotest.fail (site ^ ": " ^ e))))
    Fault.crash_site_catalogue

(* ---- storage corruption of the checkpoint journal ---- *)

let checkpointed_two_rounds ~seed path =
  let db, board, service = fresh_world ~seed in
  Prover_service.with_checkpoints service ~path;
  ignore (Result.get_ok (Prover_service.publish_epoch service ~epoch:0));
  ignore (Result.get_ok (aggregate service ~epoch:0));
  ignore (Result.get_ok (Prover_service.publish_epoch service ~epoch:1));
  ignore (Result.get_ok (aggregate service ~epoch:1));
  let root = Prover_service.latest_root service in
  Prover_service.abandon service;
  (db, board, root)

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n

let truncate_tail path n =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let keep = max 0 (len - n) in
  let contents = really_input_string ic keep in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let flip_bit path ~at =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = Bytes.of_string (really_input_string ic len) in
  close_in ic;
  Bytes.set contents at (Char.chr (Char.code (Bytes.get contents at) lxor 0x10));
  let oc = open_out_bin path in
  output_bytes oc contents;
  close_out oc

let recover_and_check ~db ~board ~path ~expected_root ~expected_restored =
  match Prover_service.resume ~proof_params:params ~db ~board ~path () with
  | Error e -> Alcotest.fail e
  | Ok (service, restored) ->
    check_int "rounds restored" expected_restored restored;
    (* the destroyed suffix is simply re-proved, bit-identically *)
    List.iter
      (fun e ->
        if not (List.mem e (Prover_service.covered_epochs service)) then (
          ignore (Result.get_ok (Prover_service.publish_epoch service ~epoch:e));
          ignore (Result.get_ok (aggregate service ~epoch:e))))
      [ 0; 1 ];
    Alcotest.check digest "root recovered" expected_root
      (Prover_service.latest_root service)

let test_torn_checkpoint_tail () =
  with_tmp (fun path ->
      let db, board, root = checkpointed_two_rounds ~seed:70 path in
      (* a partial flush frozen at the instant of death: the second row
         loses its tail, replay keeps exactly the intact prefix *)
      truncate_tail path 9;
      recover_and_check ~db ~board ~path ~expected_root:root ~expected_restored:1)

let test_bitflip_checkpoint_row () =
  with_tmp (fun path ->
      let db, board, root = checkpointed_two_rounds ~seed:71 path in
      (* flip one bit inside the last row's payload: the frame is
         intact but the checksum fails, so resume drops the row and
         compacts the file to the good prefix *)
      let size = file_size path in
      flip_bit path ~at:(size - 5);
      recover_and_check ~db ~board ~path ~expected_root:root ~expected_restored:1;
      (* the compacted file now replays clean: only intact rows left *)
      check_int "compacted to good prefix + re-proved round" 2
        (List.length (Result.get_ok (Wal.replay path))))

let test_bitflip_first_row_drops_everything () =
  with_tmp (fun path ->
      let db, board, root = checkpointed_two_rounds ~seed:72 path in
      (* corruption in row 1 invalidates the whole prefix: resume
         starts from scratch and re-proves both rounds *)
      flip_bit path ~at:40;
      recover_and_check ~db ~board ~path ~expected_root:root ~expected_restored:0)

(* Journals an older build wrote, every row with a valid checksum:
   one whose receipts predate the seal tag (that layout began with the
   image id) and one whose receipts carry the seal v4 tag (one entry
   per access-log leaf), so only the receipt decode refuses them, and
   one in the v2 row layout, which carried the round's Merkle node snapshot after
   the gap journal and is refused at its magic. [restore] refuses
   either journal and names why; [resume] drops every row and
   re-proves, and the re-proved rounds land on the same root because
   aggregation is deterministic. *)
let test_old_seal_rows_reproved () =
  let framed f =
    let w = Zkflow_util.Wire.writer () in
    f w;
    Zkflow_util.Wire.contents w
  in
  let framed_bytes b = framed (fun w -> Zkflow_util.Wire.w_bytes w b) in
  let framed_string s = framed (fun w -> Zkflow_util.Wire.w_string w s) in
  let find hay needle =
    let n = Bytes.length needle in
    let rec go i =
      if i + n > Bytes.length hay then None
      else if Zkflow_util.Bytesx.equal_sub hay i needle 0 n then Some i
      else go (i + 1)
    in
    go 0
  in
  let payload row = Bytes.sub row 32 (Bytes.length row - 32) in
  let checksummed payload = Bytes.cat (D.to_bytes (D.hash_bytes payload)) payload in
  (* The row with its receipt's encoding rewritten by [f]. *)
  let with_receipt f (round : Aggregate.round) row =
    let payload = payload row in
    let r = Zkflow_zkproof.Receipt.encode round.Aggregate.receipt in
    match find payload (framed_bytes r) with
    | None -> Alcotest.fail "row does not hold its round's receipt"
    | Some at ->
      let len = Bytes.length (framed_bytes r) in
      checksummed
        (Bytes.concat Bytes.empty
           [
             Bytes.sub payload 0 at;
             framed_bytes (f r);
             Bytes.sub payload (at + len) (Bytes.length payload - at - len);
           ])
  in
  let tag = 1 + String.length Zkflow_zkproof.Receipt.seal_tag in
  let untag = with_receipt (fun r -> Bytes.sub r tag (Bytes.length r - tag)) in
  (* the seal v4 tag, one version back *)
  let as_v4 =
    with_receipt (fun r ->
        let b = Bytes.copy r in
        Bytes.set b (tag - 1) '4';
        b)
  in
  (* The v2 row: its magic, the same fields, then the node snapshot
     (varint leaf count, then every node of the padded tree, level by
     level from the leaves). *)
  let as_v2 (round : Aggregate.round) row =
    let payload = payload row in
    let magic = framed_string "zkflow.ckpt.v3" in
    let m = Bytes.length magic in
    check_bool "row starts with the v3 magic" true
      (Zkflow_util.Bytesx.equal_sub payload 0 magic 0 m);
    let tree = Clog.tree round.Aggregate.clog in
    let module Tree = Zkflow_merkle.Tree in
    let snapshot = Buffer.create 1024 in
    Zkflow_util.Varint.write snapshot (Tree.size tree);
    for level = 0 to Tree.depth tree do
      for i = 0 to (1 lsl (Tree.depth tree - level)) - 1 do
        Buffer.add_bytes snapshot (D.to_bytes (Tree.node tree ~level i))
      done
    done;
    checksummed
      (Bytes.concat Bytes.empty
         [
           framed_string "zkflow.ckpt.v2";
           Bytes.sub payload m (Bytes.length payload - m);
           framed_bytes (Buffer.to_bytes snapshot);
         ])
  in
  List.iter
    (fun (seed, named, rewrite) ->
      with_tmp (fun path ->
          let db, board, service = fresh_world ~seed in
          Prover_service.with_checkpoints service ~path;
          List.iter
            (fun epoch ->
              ignore (Result.get_ok (Prover_service.publish_epoch service ~epoch));
              ignore (Result.get_ok (aggregate service ~epoch)))
            [ 0; 1 ];
          let root = Prover_service.latest_root service in
          let rounds = Prover_service.rounds service in
          Prover_service.abandon service;
          let rows = Result.get_ok (Wal.replay path) in
          check_int "two rows" 2 (List.length rows);
          Wal.rewrite path (List.map2 rewrite rounds rows);
          (match Prover_service.restore ~db ~board ~path () with
           | Ok _ -> Alcotest.failf "restore adopted rows that should name %S" named
           | Error e ->
             check_bool ("restore names the cause: " ^ e) true (contains ~needle:named e));
          recover_and_check ~db ~board ~path ~expected_root:root ~expected_restored:0))
    [
      (73, "unsupported seal version", untag);
      (75, "unsupported seal version", as_v4);
      (74, "zkflow.ckpt.v2", as_v2);
    ]

(* ---- degraded rounds, gap journal, heal ---- *)

let degraded_world () =
  let db = Db.create ~epoch:Zkflow_store.Epoch.default () in
  load_epoch db ~epoch:0 ~routers:3 ~per_router:3 ~seed:80;
  let board = Board.create () in
  (db, board, Prover_service.create ~proof_params:params ~db ~board ())

let publish_router board db ~router_id ~epoch =
  Result.get_ok (Board.publish board (Db.window db ~router_id ~epoch) ~router_id ~epoch)

let covered_rounds service =
  List.map2
    (fun (c : Prover_service.coverage) (r : Aggregate.round) ->
      {
        Verifier_client.epoch = c.Prover_service.epoch;
        routers = c.Prover_service.routers;
        degraded = c.Prover_service.degraded;
        heal = c.Prover_service.heal;
        receipt = r.Aggregate.receipt;
      })
    (Prover_service.coverage service)
    (Prover_service.rounds service)

let test_degraded_round_then_heal () =
  let db, board, service = degraded_world () in
  (* router 2 is late: only 0 and 1 made the deadline *)
  ignore (publish_router board db ~router_id:0 ~epoch:0);
  ignore (publish_router board db ~router_id:1 ~epoch:0);
  (match Prover_service.aggregate_available service ~epoch:0 with
   | Ok (Prover_service.Degraded (_, [ gap ])) ->
     check_int "gap router" 2 gap.Prover_service.router_id;
     check_int "gap epoch" 0 gap.Prover_service.epoch;
     check_bool "gap open" true (gap.Prover_service.healed_round = None)
   | Ok _ -> Alcotest.fail "expected a degraded round with one gap"
   | Error e -> Alcotest.fail e);
  Alcotest.(check (list (pair int int)))
    "gap journal names the absentee" [ (2, 0) ]
    (Prover_service.open_gaps service);
  check_bool "nothing healable yet" false (Prover_service.heal_pending service);
  (* the straggler finally publishes; a heal round folds it in *)
  ignore (publish_router board db ~router_id:2 ~epoch:0);
  check_bool "healable now" true (Prover_service.heal_pending service);
  (match Prover_service.heal service with
   | Ok [ _ ] -> ()
   | Ok l -> Alcotest.fail (Printf.sprintf "expected 1 heal round, got %d" (List.length l))
   | Error e -> Alcotest.fail e);
  check_int "no open gaps" 0 (List.length (Prover_service.open_gaps service));
  (match Prover_service.gaps service with
   | [ g ] -> check_bool "healed by round 1" true (g.Prover_service.healed_round = Some 1)
   | _ -> Alcotest.fail "expected exactly one journal entry");
  (match Prover_service.coverage service with
   | [ c0; c1 ] ->
     check_bool "round 0 degraded" true c0.Prover_service.degraded;
     check_bool "round 1 is a heal" true c1.Prover_service.heal;
     Alcotest.(check (list int)) "heal covers the straggler" [ 2 ]
       c1.Prover_service.routers
   | _ -> Alcotest.fail "expected two coverage entries");
  (* the whole degraded-then-healed history verifies from public data *)
  match Verifier_client.verify_coverage ~board ~gaps:[] (covered_rounds service) with
  | Error e -> Alcotest.fail e
  | Ok report ->
    check_bool "complete" true report.Verifier_client.complete;
    check_int "two rounds" 2 report.Verifier_client.round_count;
    Alcotest.check digest "final root" (Prover_service.latest_root service)
      report.Verifier_client.final_root

(* A crash at "agg.post_checkpoint" lands after the degraded round's
   row (gap journal included) is synced but before the round announces
   its gap. Resume must re-announce it, or the event log never shows
   the gap and the coverage objective cannot fire. *)
let test_gap_survives_post_checkpoint_crash () =
  with_tmp (fun path ->
      let events =
        Zkflow_obs.Obs.with_enabled (fun () ->
            let db, board, service = degraded_world () in
            Prover_service.with_checkpoints service ~path;
            ignore (publish_router board db ~router_id:0 ~epoch:0);
            ignore (publish_router board db ~router_id:1 ~epoch:0);
            with_plan
              (plan [ Fault.Crash_at { site = "agg.post_checkpoint"; hits = 1 } ])
              (fun () ->
                match Prover_service.aggregate_available service ~epoch:0 with
                | exception Fault.Crash _ -> ()
                | _ -> Alcotest.fail "expected a crash at agg.post_checkpoint");
            Prover_service.abandon service;
            let resumed, restored =
              Result.get_ok
                (Prover_service.resume ~proof_params:params ~db ~board ~path ())
            in
            check_int "degraded round restored" 1 restored;
            Alcotest.(check (list (pair int int)))
              "journal holds the gap" [ (2, 0) ]
              (Prover_service.open_gaps resumed);
            Zkflow_obs.Event.events ())
      in
      let open_in_log =
        List.filter_map
          (fun (g : Monitor.gap_status) ->
            if g.Monitor.healed_round = None then
              Some (g.Monitor.gap_router, g.Monitor.gap_epoch)
            else None)
          (Monitor.build events).Monitor.gaps
      in
      Alcotest.(check (list (pair int int))) "monitor lists the gap open" [ (2, 0) ]
        open_in_log;
      check_bool "coverage fires" true
        (List.mem "coverage" (Slo.firing_names (Slo.evaluate events))))

(* The heal-round counterpart: a crash at "agg.post_checkpoint" in a
   heal round lands after the row that marks the gap healed is synced
   but before the round announces the heal. Resume must re-announce
   it, or the monitor keeps listing a healed gap as open. *)
let test_heal_survives_post_checkpoint_crash () =
  with_tmp (fun path ->
      let events =
        Zkflow_obs.Obs.with_enabled (fun () ->
            let db, board, service = degraded_world () in
            Prover_service.with_checkpoints service ~path;
            ignore (publish_router board db ~router_id:0 ~epoch:0);
            ignore (publish_router board db ~router_id:1 ~epoch:0);
            ignore (Result.get_ok (Prover_service.aggregate_available service ~epoch:0));
            ignore (publish_router board db ~router_id:2 ~epoch:0);
            with_plan
              (plan [ Fault.Crash_at { site = "agg.post_checkpoint"; hits = 1 } ])
              (fun () ->
                match Prover_service.heal service with
                | exception Fault.Crash _ -> ()
                | _ -> Alcotest.fail "expected a crash at agg.post_checkpoint");
            Prover_service.abandon service;
            let resumed, restored =
              Result.get_ok
                (Prover_service.resume ~proof_params:params ~db ~board ~path ())
            in
            check_int "heal round restored" 2 restored;
            Alcotest.(check (list (pair int int)))
              "journal holds no open gap" [] (Prover_service.open_gaps resumed);
            Zkflow_obs.Event.events ())
      in
      Alcotest.(check (list (triple int int (option int))))
        "monitor lists the gap healed by round 1"
        [ (2, 0, Some 1) ]
        (List.map
           (fun (g : Monitor.gap_status) ->
             (g.Monitor.gap_router, g.Monitor.gap_epoch, g.Monitor.healed_round))
           (Monitor.build events).Monitor.gaps))

(* A gap that survives two restarts is still one gap. Each restart
   re-announces only what the last restored row detected, so once a
   later round is checkpointed a restart announces nothing; the
   repeats that remain count once, for the monitor and the SLOs. *)
let test_gap_surviving_restarts_counts_once () =
  with_tmp (fun path ->
      let events =
        Zkflow_obs.Obs.with_enabled (fun () ->
            let db, board, service = degraded_world () in
            load_epoch db ~epoch:1 ~routers:3 ~per_router:3 ~seed:81;
            Prover_service.with_checkpoints service ~path;
            ignore (publish_router board db ~router_id:0 ~epoch:0);
            ignore (publish_router board db ~router_id:1 ~epoch:0);
            ignore (Result.get_ok (Prover_service.aggregate_available service ~epoch:0));
            let restart s =
              Prover_service.abandon s;
              fst
                (Result.get_ok
                   (Prover_service.resume ~proof_params:params ~db ~board ~path ()))
            in
            let resumed = restart (restart service) in
            List.iter
              (fun router_id -> ignore (publish_router board db ~router_id ~epoch:1))
              [ 0; 1; 2 ];
            ignore (Result.get_ok (Prover_service.aggregate_available resumed ~epoch:1));
            let resumed = restart resumed in
            Alcotest.(check (list (pair int int)))
              "journal holds the gap" [ (2, 0) ]
              (Prover_service.open_gaps resumed);
            Zkflow_obs.Event.events ())
      in
      let opens =
        List.filter (fun (e : Zkflow_obs.Event.t) -> e.kind = "prover.gap.open") events
      in
      check_int "announced by the round and by the two restarts over its row" 3
        (List.length opens);
      check_int "monitor lists one gap" 1 (List.length (Monitor.build events).Monitor.gaps);
      match
        List.find_opt
          (fun a -> a.Slo.spec.Slo.slo_name = "coverage")
          (Slo.evaluate events)
      with
      | None -> Alcotest.fail "no coverage alert"
      | Some a ->
        check_int "coverage counts the gap once" 1 a.Slo.bad_count;
        check_int "one cause" 1 (List.length a.Slo.causes))

let test_skipped_round_when_nothing_published () =
  let _, _, service = degraded_world () in
  match Prover_service.aggregate_available service ~epoch:0 with
  | Ok (Prover_service.Skipped gaps) ->
    check_int "all three named" 3 (List.length gaps);
    check_int "no round ran" 0 (List.length (Prover_service.rounds service));
    check_int "journal has them" 3 (List.length (Prover_service.open_gaps service))
  | Ok _ -> Alcotest.fail "expected Skipped"
  | Error e -> Alcotest.fail e

let test_coverage_rejects_silent_loss () =
  let db, board, service = degraded_world () in
  ignore (publish_router board db ~router_id:0 ~epoch:0);
  ignore (publish_router board db ~router_id:1 ~epoch:0);
  (match Prover_service.aggregate_available service ~epoch:0 with
   | Ok (Prover_service.Degraded _) -> ()
   | _ -> Alcotest.fail "expected degraded round");
  (* router 2's commitment appears on the board but the history neither
     covers it nor declares the gap: silent loss, rejected *)
  ignore (publish_router board db ~router_id:2 ~epoch:0);
  (match Verifier_client.verify_coverage ~board ~gaps:[] (covered_rounds service) with
   | Ok _ -> Alcotest.fail "silent loss accepted"
   | Error e ->
     check_bool "names the loss" true (contains ~needle:"neither covered" e));
  (* declaring it as an open gap makes the same history acceptable *)
  match
    Verifier_client.verify_coverage ~board ~gaps:[ (2, 0) ] (covered_rounds service)
  with
  | Ok report -> check_bool "incomplete but verified" false report.Verifier_client.complete
  | Error e -> Alcotest.fail e

let test_coverage_rejects_gap_covered_overlap () =
  let db, board, service = degraded_world () in
  ignore (publish_router board db ~router_id:0 ~epoch:0);
  ignore (publish_router board db ~router_id:1 ~epoch:0);
  (match Prover_service.aggregate_available service ~epoch:0 with
   | Ok _ -> ()
   | Error e -> Alcotest.fail e);
  (* claiming router 0 both covered and an open gap is a contradiction *)
  match
    Verifier_client.verify_coverage ~board
      ~gaps:[ (0, 0); (2, 0) ]
      (covered_rounds service)
  with
  | Ok _ -> Alcotest.fail "contradictory claim accepted"
  | Error _ -> ()

(* ---- idempotent publication ---- *)

let test_publish_epoch_idempotent () =
  let db, board, service = degraded_world () in
  (* router 1 already made it to the board (e.g. before a crash) *)
  ignore (publish_router board db ~router_id:1 ~epoch:0);
  (match Prover_service.publish_epoch service ~epoch:0 with
   | Ok r ->
     check_int "two fresh" 2 (List.length r.Prover_service.published);
     Alcotest.(check (list int)) "one skipped" [ 1 ] r.Prover_service.skipped
   | Error e -> Alcotest.fail e);
  (* running the whole epoch again is a no-op, not a board rejection *)
  match Prover_service.publish_epoch service ~epoch:0 with
  | Ok r ->
    check_int "nothing fresh" 0 (List.length r.Prover_service.published);
    check_int "all skipped" 3 (List.length r.Prover_service.skipped)
  | Error e -> Alcotest.fail e

(* ---- the checkpoint journal carries coverage + gap journal ---- *)

let test_restore_preserves_gaps () =
  with_tmp (fun path ->
      let db, board, service = degraded_world () in
      Prover_service.with_checkpoints service ~path;
      ignore (publish_router board db ~router_id:0 ~epoch:0);
      ignore (publish_router board db ~router_id:1 ~epoch:0);
      ignore (Result.get_ok (Prover_service.aggregate_available service ~epoch:0));
      match Prover_service.restore ~proof_params:params ~db ~board ~path () with
      | Error e -> Alcotest.fail e
      | Ok restored ->
        Alcotest.check digest "root survives" (Prover_service.latest_root service)
          (Prover_service.latest_root restored);
        Alcotest.(check (list (pair int int)))
          "open gaps survive" [ (2, 0) ]
          (Prover_service.open_gaps restored);
        check_bool "coverage survives" true
          (Prover_service.coverage restored = Prover_service.coverage service);
        (* and the restored service can still heal *)
        ignore (publish_router board db ~router_id:2 ~epoch:0);
        (match Prover_service.heal restored with
         | Ok [ _ ] -> check_int "healed" 0 (List.length (Prover_service.open_gaps restored))
         | Ok _ -> Alcotest.fail "expected one heal round"
         | Error e -> Alcotest.fail e);
        (* a read-only restore left the journal alone: one row *)
        check_int "journal untouched" 1 (List.length (Result.get_ok (Wal.replay path))))

(* ---- the full chaos cycle ---- *)

let chaos_config =
  {
    Chaos.default_config with
    Chaos.routers = 2;
    flows = 6;
    rate_pps = 25.0;
    duration_ms = 9_000;
  }

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "zkflow-fault-%d-%d" (Unix.getpid ()) !counter)
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d

(* Chaos runs record the flight-recorder log, so the report's SLO
   cross-check runs over real events rather than vacuously. *)
let run_chaos p =
  match
    Zkflow_obs.Obs.with_enabled (fun () ->
        Chaos.run ~dir:(fresh_dir ()) ~config:chaos_config ~plan:p ())
  with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check (list string)) "slo fired = expected" r.Chaos.slo_expected
      (List.sort String.compare r.Chaos.slo_fired);
    check_bool "slo_ok" true r.Chaos.slo_ok;
    check_bool "twin slo ok" true r.Chaos.twin_slo_ok;
    check_bool "verdict passes" true (Chaos.verdict r = Ok ());
    r

let test_chaos_run_crash_storm () =
  let p =
    plan ~seed:3 ~name:"crash-storm"
      [
        Fault.Crash_at { site = "agg.pre_prove"; hits = 1 };
        Fault.Crash_at { site = "ckpt.pre_sync"; hits = 2 };
        Fault.Crash_at { site = "agg.post_checkpoint"; hits = 2 };
        Fault.Torn_write { target = "checkpoint"; drop_bytes = 5 };
      ]
  in
  let r = run_chaos p in
  check_bool "crashed" true (r.Chaos.crashes >= 3);
  check_bool "resumed" true (r.Chaos.resumes >= 1);
  check_bool "safety" true r.Chaos.safety_ok;
  check_bool "liveness" true r.Chaos.liveness_ok;
  check_string "root bit-identical to twin" r.Chaos.twin_root r.Chaos.final_root;
  check_bool "complete" true (r.Chaos.status = Chaos.Complete)

let test_chaos_run_dropped_export_degrades_explicitly () =
  let p = plan ~seed:4 ~name:"dropped-export" [ Fault.Drop { router = 1; epoch = 0 } ] in
  let r = run_chaos p in
  check_bool "safety" true r.Chaos.safety_ok;
  check_bool "liveness: loss is explicit" true r.Chaos.liveness_ok;
  check_bool "gap names the destroyed export" true
    (List.mem (1, 0) r.Chaos.open_gaps);
  check_bool "degraded status" true (r.Chaos.status = Chaos.Degraded);
  check_string "root still bit-identical to twin" r.Chaos.twin_root r.Chaos.final_root;
  (* the verdict names every missed or spurious objective *)
  let names_in r' needles =
    match Chaos.verdict r' with
    | Ok () -> Alcotest.fail "verdict passed a broken cross-check"
    | Error e -> List.iter (fun n -> check_bool n true (contains ~needle:n e)) needles
  in
  names_in
    { r with Chaos.slo_fired = [ "ingest-admission" ] }
    [ "missed SLO coverage"; "spurious SLO ingest-admission" ];
  names_in
    { r with Chaos.twin_slo_fired = [ "prover-restarts" ] }
    [ "twin fired SLO prover-restarts" ]

(* A router commits to every window, an empty one included: under
   heavy loss some windows hold no record, and the harness publishes
   them while both the daemon and the twin cover them. *)
let test_chaos_covers_empty_windows () =
  let dir = fresh_dir () in
  let config =
    { chaos_config with Chaos.routers = 4; flows = 2; rate_pps = 2.0; duration_ms = 20_000; loss_rate = 0.6 }
  in
  let p = plan ~seed:3 ~name:"empty-windows" [ Fault.Crash_at { site = "agg.pre_prove"; hits = 1 } ] in
  match Zkflow_obs.Obs.with_enabled (fun () -> Chaos.run ~dir ~config ~plan:p ()) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    check_bool "verdict passes" true (Chaos.verdict r = Ok ());
    check_bool "crashed" true (r.Chaos.crashes >= 1);
    check_string "root bit-identical to twin" r.Chaos.twin_root r.Chaos.final_root;
    let empty line =
      match String.split_on_char ' ' line with [ _; _; "0"; _ ] -> true | _ -> false
    in
    check_bool "an empty window is on the board" true
      (List.exists empty
         (String.split_on_char '\n'
            (In_channel.with_open_bin (Filename.concat dir "board.txt") In_channel.input_all)))

let test_chaos_daemon_twin () =
  (* Worker kills, a harness-side publish kill, a held export healed
     during the drain, and an overload burst — the resident daemon's
     final root must still be bit-identical to the uninterrupted
     *batch* twin over the same records. *)
  let p =
    plan ~seed:5 ~name:"daemon-storm"
      [
        Fault.Crash_at { site = "agg.pre_checkpoint"; hits = 1 };
        Fault.Crash_at { site = "board.publish"; hits = 1 };
        Fault.Delay { router = 1; epoch = 0 };
        Fault.Flood { windows = 6; capacity = 3 };
      ]
  in
  let r = run_chaos p in
  check_bool "crashed at both kill sites" true (r.Chaos.crashes >= 2);
  check_bool "resumed" true (r.Chaos.resumes >= 1);
  check_bool "safety" true r.Chaos.safety_ok;
  check_bool "liveness" true r.Chaos.liveness_ok;
  check_string "root bit-identical to batch twin" r.Chaos.twin_root
    r.Chaos.final_root;
  check_bool "held export healed" true (r.Chaos.heal_rounds >= 1);
  check_bool "complete after heal" true (r.Chaos.status = Chaos.Complete);
  check_bool "every window admitted" true (r.Chaos.accepted >= r.Chaos.submitted - r.Chaos.duplicates && r.Chaos.submitted > 0);
  check_bool "drained" true (r.Chaos.drains >= 1);
  check_int "flood shed exactly past capacity" 3 r.Chaos.flood_shed;
  check_bool "flood verdict" true r.Chaos.flood_ok

let test_chaos_kill_during_drain () =
  (* The held export heals inside the drain, and the only kill lands
     there: the two epoch rounds pass agg.pre_prove first, so its
     third pass is the first heal round. A death mid-drain restarts
     the daemon and drains again. *)
  let p =
    plan ~seed:6 ~name:"drain-kill"
      [
        Fault.Delay { router = 1; epoch = 0 };
        Fault.Crash_at { site = "agg.pre_prove"; hits = 3 };
      ]
  in
  let r = run_chaos p in
  check_int "one kill" 1 r.Chaos.crashes;
  check_int "resumed" 1 r.Chaos.resumes;
  check_int "killed after every epoch round was durable"
    (r.Chaos.rounds - r.Chaos.heal_rounds)
    r.Chaos.restored_rounds;
  check_bool "held export healed" true (r.Chaos.heal_rounds >= 1);
  check_bool "drained" true (r.Chaos.drains >= 1);
  check_bool "safety" true r.Chaos.safety_ok;
  check_bool "liveness" true r.Chaos.liveness_ok;
  check_string "root bit-identical to twin" r.Chaos.twin_root r.Chaos.final_root;
  check_bool "complete after heal" true (r.Chaos.status = Chaos.Complete)

let () =
  Alcotest.run "zkflow_fault"
    [
      ( "plan",
        [
          Alcotest.test_case "json roundtrip" `Quick test_plan_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_plan_rejects_garbage;
          Alcotest.test_case "file roundtrip" `Quick test_plan_file_roundtrip;
          Alcotest.test_case "random plan deterministic" `Quick
            test_random_plan_deterministic;
          QCheck_alcotest.to_alcotest qcheck_plan_roundtrip;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "crashpoint countdown" `Quick test_crashpoint_countdown;
          Alcotest.test_case "failpoint budget" `Quick test_failpoint_budget;
          Alcotest.test_case "retry recovers deterministically" `Quick
            test_retry_recovers_and_is_deterministic;
          Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion;
          Alcotest.test_case "retry zero-attempt budget" `Quick
            test_retry_zero_attempt_budget;
          Alcotest.test_case "retry exhaustion surfaces last error" `Quick
            test_retry_exhaustion_surfaces_last_error;
          Alcotest.test_case "retry backoff ceiling" `Quick test_retry_backoff_ceiling;
        ] );
      ( "crash-resume",
        [
          Alcotest.test_case "kill/resume at every site, root bit-identical" `Slow
            test_kill_resume_every_site;
          Alcotest.test_case "torn checkpoint tail" `Quick test_torn_checkpoint_tail;
          Alcotest.test_case "bit-flipped checkpoint row" `Quick
            test_bitflip_checkpoint_row;
          Alcotest.test_case "bit-flipped first row" `Quick
            test_bitflip_first_row_drops_everything;
          Alcotest.test_case "rows from an older seal re-proved" `Quick
            test_old_seal_rows_reproved;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "degraded round then heal" `Quick
            test_degraded_round_then_heal;
          Alcotest.test_case "gap survives a post-checkpoint crash" `Quick
            test_gap_survives_post_checkpoint_crash;
          Alcotest.test_case "gap surviving restarts counts once" `Quick
            test_gap_surviving_restarts_counts_once;
          Alcotest.test_case "heal survives a post-checkpoint crash" `Quick
            test_heal_survives_post_checkpoint_crash;
          Alcotest.test_case "skipped round" `Quick
            test_skipped_round_when_nothing_published;
          Alcotest.test_case "silent loss rejected" `Quick
            test_coverage_rejects_silent_loss;
          Alcotest.test_case "gap/covered overlap rejected" `Quick
            test_coverage_rejects_gap_covered_overlap;
        ] );
      ( "idempotency",
        [ Alcotest.test_case "publish_epoch" `Quick test_publish_epoch_idempotent ] );
      ( "persistence",
        [ Alcotest.test_case "restore keeps gap journal" `Quick
            test_restore_preserves_gaps ] );
      ( "chaos",
        [
          Alcotest.test_case "crash storm: safety + liveness" `Slow
            test_chaos_run_crash_storm;
          Alcotest.test_case "dropped export degrades explicitly" `Slow
            test_chaos_run_dropped_export_degrades_explicitly;
          Alcotest.test_case "empty windows are published and covered" `Slow
            test_chaos_covers_empty_windows;
          Alcotest.test_case "daemon-mode: kills + held export + flood" `Slow
            test_chaos_daemon_twin;
          Alcotest.test_case "kill during the drain's heal round" `Slow
            test_chaos_kill_during_drain;
        ] );
    ]
