(* zkflow command-line interface.

   A file-based workflow mirroring the paper's deployment roles:

     zkflow simulate --dir state   # routers: generate traffic, export
                                   # RLogs (WAL) + publish commitments
     zkflow prove    --dir state   # operator: aggregate every epoch
                                   # under proof; optionally prove a query
     zkflow verify   --dir state   # auditor: verify the receipt chain
                                   # (and query receipt) from public data

   The directory holds: rlogs.wal (private telemetry), board.txt (the
   public bulletin), checkpoints.wal (the prover's private state),
   receipts.bin / query.bin (proof artifacts). *)

module D = Zkflow_hash.Digest32
module Db = Zkflow_store.Db
module Epoch = Zkflow_store.Epoch
module Board = Zkflow_commitlog.Board
module Ipaddr = Zkflow_netflow.Ipaddr
module Receipt = Zkflow_zkproof.Receipt
module Wire = Zkflow_util.Wire
module Jsonx = Zkflow_util.Jsonx
module Obs = Zkflow_obs.Obs
open Zkflow_core

let ( let* ) = Result.bind
let ( // ) = Filename.concat

(* All state files land via write-temp-then-rename: a crash mid-write
   (or a concurrent reader) sees either the old complete file or the
   new complete file, never a torn one. *)
let write_file path contents = Zkflow_store.Wal.write_file_atomic path contents

let read_file path =
  if not (Sys.file_exists path) then Error (path ^ ": not found")
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let b = Bytes.create n in
    really_input ic b 0 n;
    close_in ic;
    Ok b
  end

let wal_path dir = dir // "rlogs.wal"
let board_path dir = dir // "board.txt"
let receipts_path dir = dir // "receipts.bin"
let query_path dir = dir // "query.bin"
let events_path dir = dir // "events.jsonl"
let ckpt_path dir = dir // "checkpoints.wal"

let epoch_policy = Epoch.default

(* Flight-recorder wrapper: when [events] names a file, run [f] with
   telemetry enabled and flush the event ring to that file afterwards
   — even when [f] fails, so the log still shows what went wrong.
   [simulate] truncates ([append:false]); later stages append, so one
   state directory accumulates a single causal log across the whole
   simulate -> prove -> verify workflow. *)
let with_events ?(append = false) events f =
  match events with
  | None -> f ()
  | Some path ->
    Obs.reset ();
    Obs.enable ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.write_events ~append path)
      f

(* ---- simulate ---- *)

let simulate dir routers flows rate duration loss seed =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [
      wal_path dir; board_path dir; receipts_path dir; query_path dir;
      events_path dir; ckpt_path dir;
    ];
  let db = Db.create ~wal_path:(wal_path dir) ~epoch:epoch_policy () in
  let board = Board.create () in
  let packets, records =
    Zkflow.simulate_traffic ~seed:(Int64.of_int seed) ~routers ~flows ~rate_pps:rate
      ~duration_ms:duration ~loss_rate:loss db
  in
  Db.sync db;
  (* routers publish one commitment per window, empty ones included *)
  List.iter
    (fun (epoch, routers) ->
      List.iter
        (fun router_id ->
          let window = Db.window db ~router_id ~epoch in
          match Board.publish board window ~router_id ~epoch with
          | Ok c ->
            Printf.printf "published r%d/e%d: %s (%d records)\n" router_id epoch
              (D.short c.Zkflow_commitlog.Commitment.batch)
              (Array.length window)
          | Error e -> failwith e)
        routers)
    (Db.windows db);
  write_file (board_path dir) (Bytes.of_string (Board.export board));
  Printf.printf "simulated %d packets -> %d records across %d routers\n" packets records
    routers;
  Printf.printf "state written to %s (rlogs.wal, board.txt)\n" dir;
  Ok ()

let simulate dir routers flows rate duration loss seed events =
  with_events ~append:false events (fun () ->
      simulate dir routers flows rate duration loss seed)

(* ---- prove ---- *)

let recover_store dir =
  Result.map_error (( ^ ) "recovering store: ")
    (Db.recover ~wal_path:(wal_path dir) ~epoch:epoch_policy)

let load_state dir =
  let* db = recover_store dir in
  let* board_text = read_file (board_path dir) in
  let* board = Board.import (Bytes.to_string board_text) in
  Ok (db, board)

let encode_rounds rounds =
  let w = Wire.writer () in
  Wire.w_list w
    (fun (epoch, receipt) ->
      Wire.w_int w epoch;
      Wire.w_bytes w (Receipt.encode receipt))
    rounds;
  Wire.contents w

let decode_rounds bytes =
  Wire.decode bytes (fun r ->
      Wire.r_list r (fun () ->
          let epoch = Wire.r_int r in
          let receipt_bytes = Wire.r_bytes r in
          match Receipt.decode receipt_bytes with
          | Ok receipt -> (epoch, receipt)
          | Error e -> raise (Wire.Decode e)))

let parse_query src dst metric op =
  let* predicate =
    let field name = function
      | None -> Ok None
      | Some s -> (
        match Ipaddr.of_string s with
        | Ok ip -> Ok (Some ip)
        | Error e -> Error (name ^ ": " ^ e))
    in
    let* src_ip = field "--src" src in
    let* dst_ip = field "--dst" dst in
    Ok { Guests.match_any with Guests.src_ip; dst_ip }
  in
  let* metric = Guests.metric_of_name metric in
  let* op = Guests.op_of_name op in
  Ok { Guests.predicate; op; metric }

(* Custom Zirc query guests all receive the standard CLog statement
   stream: m, the claimed root (8 words), then the m entries — see
   PROTOCOL.md §3.2 and examples/custom_query.ml. *)
let clog_input clog =
  Array.concat
    [
      [| Clog.length clog |];
      Zkflow_zkvm.Guestlib.words_of_digest (D.to_bytes (Clog.root clog));
      Clog.words clog;
    ]

let prove_zirc ~params ~clog path =
  let* program_src = Zkflow_lang.Zirc_parse.parse_file path in
  let* program = Zkflow_lang.Zirc.compile program_src in
  match
    Prover_service.prove_custom ~proof_params:params ~subject:path program
      ~input:(clog_input clog)
  with
  | Error e -> Error ("custom query: " ^ e)
  | Ok (receipt, run) ->
    Printf.printf "custom query %s: %d cycles, journal %s\n" path
      run.Zkflow_zkvm.Machine.cycles
      (String.concat ","
         (List.map string_of_int (Array.to_list run.Zkflow_zkvm.Machine.journal)));
    Ok receipt

(* The one round driver for a state directory, shared by [prove] and
   [serve]: every window the routers exported (Db.windows, the set
   [simulate] publishes, empty windows included) goes through the
   daemon's bounded ingest queue, epoch by epoch, and each epoch
   closes once its windows are in. [submit_wait] is the backpressure
   path: the replay blocks rather than sheds when it outruns the
   prover. *)
let replay_epoch d db_src (epoch, routers) =
  List.iter
    (fun router_id ->
      let recs = Array.to_list (Db.window ~announce:false db_src ~router_id ~epoch) in
      ignore (Daemon.submit_wait d ~router_id ~epoch recs))
    routers;
  Daemon.advance d ~epoch

(* The tail both drivers write: every non-heal round's receipt, in
   round order, for [verify]. *)
let write_receipts dir service =
  let rounds =
    List.filter_map
      (fun ((cov : Prover_service.coverage), (round : Aggregate.round)) ->
        if cov.Prover_service.heal then None
        else Some (cov.Prover_service.epoch, round.Aggregate.receipt))
      (List.combine (Prover_service.coverage service) (Prover_service.rounds service))
  in
  write_file (receipts_path dir) (encode_rounds rounds);
  Printf.printf "receipts written to %s\n" (receipts_path dir)

let no_round d ~epoch =
  Printf.sprintf "epoch %d: no round: %s" epoch
    (Option.value ~default:"not proved" (Daemon.round_error d ~epoch))

(* The rule receipts.bin is written under: every window of every store
   epoch sits in its epoch's round, as [verify] requires. A gap, open
   or healed, names a window its epoch's round went without, and an
   epoch with no round names the error its round failed with. *)
let check_complete d db_src =
  let service = Daemon.service d in
  match Prover_service.gaps service with
  | { Prover_service.router_id; epoch; _ } :: _ ->
    Error (Printf.sprintf "router %d's window for epoch %d is not in its epoch's round" router_id epoch)
  | [] -> (
    let covered = Prover_service.covered_epochs service in
    match List.find_opt (fun e -> not (List.mem e covered)) (Db.epochs db_src) with
    | None -> Ok ()
    | Some epoch -> Error (no_round d ~epoch))

(* [prove] saves no round its strictness would refuse (a re-run after
   the mend resumes them): the board must hold every window's
   commitment before the first round, and the replay stops at the
   first epoch left without a round. *)
let check_board db_src board =
  let missing (epoch, routers) =
    List.find_map
      (fun router_id ->
        if Board.lookup board ~router_id ~epoch <> None then None
        else Some (Printf.sprintf "router %d has no published commitment for epoch %d" router_id epoch))
      routers
  in
  Option.fold ~none:(Ok ()) ~some:Result.error (List.find_map missing (Db.windows db_src))

let replay_strict d db_src =
  let rec go = function
    | [] -> Ok ()
    | ((epoch, _) as window) :: rest -> (
      replay_epoch d db_src window;
      match Daemon.await_idle d with
      | `Crashed site -> Error (Printf.sprintf "crashed at %s during epoch %d" site epoch)
      | `Idle ->
        if List.mem epoch (Prover_service.covered_epochs (Daemon.service d)) then go rest
        else Error (no_round d ~epoch))
  in
  go (Db.windows db_src)

let prove_inner dir queries_n src dst metric op zirc =
  let* db_src, board = load_state dir in
  let* () = check_board db_src board in
  let params = Zkflow_zkproof.Params.make ~queries:queries_n in
  (* Crash-consistent: every round is journaled to checkpoints.wal
     before it is visible, and an interrupted prove picks up from the
     synced prefix instead of re-proving history. The board is given,
     so the daemon does not publish. *)
  let* d, restored =
    Daemon.create
      ~config:{ Daemon.default_config with Daemon.publish = false }
      ~proof_params:params ~db:(Db.create ~epoch:epoch_policy ()) ~board
      ~ckpt_path:(ckpt_path dir) ()
  in
  if restored > 0 then
    Printf.printf "resumed %d checkpointed round(s) from %s\n" restored
      (ckpt_path dir);
  let drained = Result.bind (replay_strict d db_src) (fun () -> Daemon.drain d) in
  Daemon.stop d;
  let* () = drained in
  let service = Daemon.service d in
  List.iter2
    (fun (cov : Prover_service.coverage) (round : Aggregate.round) ->
      if not (round.Aggregate.restored || cov.Prover_service.heal) then
        Printf.printf "epoch %d: %d flows, %d cycles, proved in %.2fs (%d KB)\n"
          cov.Prover_service.epoch
          (Clog.length round.Aggregate.clog)
          round.Aggregate.cycles round.Aggregate.prove_s
          (Receipt.size round.Aggregate.receipt / 1024))
    (Prover_service.coverage service) (Prover_service.rounds service);
  let* () = check_complete d db_src in
  write_receipts dir service;
  (* optional built-in query *)
  let* () =
    match (src, dst) with
    | None, None -> Ok ()
    | _ ->
      let* q = parse_query src dst metric op in
      let* row = Prover_service.query service q in
      write_file (query_path dir) (Receipt.encode row.Query.receipt);
      Printf.printf "query proved: result=%d matches=%d -> %s\n"
        row.Query.journal.Guests.result row.Query.journal.Guests.matches
        (query_path dir);
      Ok ()
  in
  (* optional custom (Zirc) query *)
  match zirc with
  | None -> Ok ()
  | Some path ->
    let* receipt = prove_zirc ~params ~clog:(Prover_service.clog service) path in
    write_file (dir // "custom.bin") (Receipt.encode receipt);
    Printf.printf "custom receipt -> %s\n" (dir // "custom.bin");
    Ok ()

let print_phase_totals () =
  match Obs.span_totals_s () with
  | [] -> ()
  | totals ->
    Printf.printf "phase totals:\n";
    List.iter
      (fun (name, (count, s)) -> Printf.printf "  %-24s %6dx %9.3fs\n" name count s)
      totals

let prove dir queries_n src dst metric op zirc trace_out events stats_out =
  let recording = trace_out <> None || events <> None || stats_out <> None in
  if recording then begin
    Obs.reset ();
    Obs.enable ()
  end;
  let result =
    Fun.protect
      ~finally:(fun () ->
        if recording then begin
          Obs.disable ();
          (match events with
          | Some path -> Obs.write_events ~append:true path
          | None -> ());
          match stats_out with
          | Some path ->
            (* Counter cells survive [Obs.disable] until the next
               reset, so the snapshot still carries the full run. *)
            write_file path (Bytes.of_string (Zkflow_obs.Export.stats_json ()));
            Printf.printf "stats written to %s\n" path
          | None -> ()
        end)
      (fun () -> prove_inner dir queries_n src dst metric op zirc)
  in
  match (result, trace_out) with
  | Ok (), Some path ->
    Obs.write_trace path;
    Printf.printf "trace written to %s (chrome://tracing or ui.perfetto.dev)\n" path;
    print_phase_totals ();
    Ok ()
  | r, _ -> r

(* ---- stats ---- *)

(* The prover's saved state, read-only: the intact prefix of
   checkpoints.wal. A corrupt journal must be a one-line diagnosis,
   never a backtrace: decode failures are values, and anything the
   decoder did not anticipate is caught here. *)
let restore_service dir =
  let* db, board = load_state dir in
  let path = ckpt_path dir in
  if not (Sys.file_exists path) then
    Error (Printf.sprintf "%s: not found (run `zkflow prove --dir %s` first)" path dir)
  else
    match Prover_service.restore ~db ~board ~path () with
    | Ok s -> Ok s
    | Error e -> Error (Printf.sprintf "%s: corrupt state: %s" path e)
    | exception e ->
      Error (Printf.sprintf "%s: corrupt state: %s" path (Printexc.to_string e))

let stats dir json =
  let* service = restore_service dir in
  if json then print_endline (Prover_service.summary_json service)
  else begin
    let clog = Prover_service.clog service in
    let summaries = Prover_service.summaries service in
    Printf.printf "%d aggregation round(s); CLog root %s (%d entries)\n"
      (List.length summaries) (D.short (Clog.root clog)) (Clog.length clog);
    (* The spot-check count the receipts carry; when rounds differ,
       one line per count, naming its rounds. *)
    let counts = Prover_service.seal_queries service in
    List.iter
      (fun (queries, rounds) ->
        Printf.printf
          "proof params: %d spot checks/category ≈ %.2f soundness bits (5%% \
           corruption convention, DESIGN.md §5)%s\n"
          queries
          (Zkflow_zkproof.Params.soundness_bits (Zkflow_zkproof.Params.make ~queries))
          (if List.length counts = 1 then ""
           else " in round(s) " ^ String.concat "," (List.map string_of_int rounds)))
      counts;
    List.iter
      (fun (s : Prover_service.round_summary) ->
        Printf.printf "  round %d: %7d entries, %9d cycles, root %s%s\n" s.index
          s.entries s.cycles
          (String.sub s.root 0 12)
          (if s.restored then " (restored)"
           else Printf.sprintf ", proved in %.2fs" s.prove_s))
      summaries;
    match List.map (fun (s : Prover_service.round_summary) -> s.cycles) summaries with
    | [] -> ()
    | cycles ->
      let snap = Zkflow_obs.Metric.snapshot_of_values cycles in
      let p q = Zkflow_obs.Metric.percentile snap q in
      Printf.printf "  round cycles: p50<=%d p95<=%d p99<=%d max=%d\n" (p 0.50)
        (p 0.95) (p 0.99) snap.Zkflow_obs.Metric.max_value
  end;
  Ok ()

(* ---- trace-check ---- *)

(* Validate a Chrome trace_event file the way a consumer would: parse
   the JSON, require the schema keys on every complete event, and
   demand enough distinct span names that the trace is actually
   informative. *)
(* Validate an event-log JSONL file: every line must decode to an
   event, timestamps must be monotone per track, and causality must
   hold — an epoch the verifier passed judgement on must have been
   seen earlier on some router's track (the commitment the verdict is
   about had to exist first). *)
let events_check path =
  let* events, tail_note = Zkflow_obs.Event.load_jsonl path in
  Option.iter (Printf.eprintf "warning: %s\n") tail_note;
  let last_ts = Hashtbl.create 16 in
  let router_epochs = Hashtbl.create 64 in
  let is_router_track t = String.length t > 7 && String.sub t 0 7 = "router." in
  let rec go i = function
    | [] -> Ok ()
    | (e : Zkflow_obs.Event.t) :: rest ->
      let* () =
        match Hashtbl.find_opt last_ts e.Zkflow_obs.Event.track with
        | Some prev when e.Zkflow_obs.Event.ts_ns < prev ->
          Error
            (Printf.sprintf
               "%s: event %d: timestamp moves backwards on track %S" path i
               e.Zkflow_obs.Event.track)
        | _ ->
          Hashtbl.replace last_ts e.Zkflow_obs.Event.track e.Zkflow_obs.Event.ts_ns;
          Ok ()
      in
      let* () =
        if is_router_track e.Zkflow_obs.Event.track then begin
          Option.iter
            (fun ep -> Hashtbl.replace router_epochs ep ())
            e.Zkflow_obs.Event.epoch;
          Ok ()
        end
        else if e.Zkflow_obs.Event.track = "verifier" then begin
          match e.Zkflow_obs.Event.epoch with
          | Some ep when not (Hashtbl.mem router_epochs ep) ->
            Error
              (Printf.sprintf
                 "%s: event %d: verifier saw epoch %d before any router track did"
                 path i ep)
          | _ -> Ok ()
        end
        else Ok ()
      in
      go (i + 1) rest
  in
  let* () = go 0 events in
  let tracks = Hashtbl.length last_ts in
  Printf.printf "%s: %d event(s) on %d track(s) — ok\n" path (List.length events)
    tracks;
  Ok ()

let trace_check path min_names =
  let* bytes = read_file path in
  let* v = Jsonx.parse (Bytes.to_string bytes) in
  let* events =
    match v with
    | Jsonx.Arr events -> Ok events
    | _ -> Error (path ^ ": expected a top-level JSON array of trace events")
  in
  let required = [ "ph"; "ts"; "pid"; "tid"; "name" ] in
  let names = Hashtbl.create 16 in
  let* () =
    let rec go i = function
      | [] -> Ok ()
      | e :: rest -> (
        match List.find_opt (fun k -> Jsonx.member k e = None) required with
        | Some k -> Error (Printf.sprintf "%s: event %d: missing key %S" path i k)
        | None ->
          (match Jsonx.member "name" e with
          | Some (Jsonx.Str n) -> Hashtbl.replace names n ()
          | _ -> ());
          go (i + 1) rest)
    in
    go 0 events
  in
  let distinct = Hashtbl.length names in
  if distinct < min_names then
    Error
      (Printf.sprintf "%s: only %d distinct span name(s), need >= %d" path
         distinct min_names)
  else begin
    Printf.printf "%s: %d event(s), %d distinct span name(s) — ok\n" path
      (List.length events) distinct;
    Ok ()
  end

(* Assertions over a `prove --stats` snapshot: each --require NAME=MIN
   must name a recorded counter whose value reached MIN. This is how
   the smoke gate proves a code path actually ran (e.g. --require
   merkle.nodes_copied=1: tree builds copied equal-neighbour slots),
   not just that timings looked plausible. *)
let counters_check path requires =
  let* bytes = read_file path in
  let* v = Jsonx.parse (Bytes.to_string bytes) in
  let* counters =
    match Jsonx.member "counters" v with
    | Some (Jsonx.Obj members) -> Ok members
    | _ -> Error (path ^ ": no \"counters\" object (expected a prove --stats file)")
  in
  let rec go = function
    | [] ->
      Printf.printf "%s: %d counter(s), %d requirement(s) met — ok\n" path
        (List.length counters) (List.length requires);
      Ok ()
    | req :: rest -> (
      match String.index_opt req '=' with
      | None -> Error (Printf.sprintf "--require %S: expected NAME=MIN" req)
      | Some i -> (
        let name = String.sub req 0 i in
        match int_of_string_opt (String.sub req (i + 1) (String.length req - i - 1)) with
        | None -> Error (Printf.sprintf "--require %S: expected NAME=MIN" req)
        | Some min_v -> (
          match List.assoc_opt name counters with
          | Some (Jsonx.Num f) ->
            let actual = int_of_float f in
            if actual >= min_v then go rest
            else
              Error
                (Printf.sprintf "%s: counter %s = %d, need >= %d" path name actual
                   min_v)
          | _ -> Error (Printf.sprintf "%s: counter %s not recorded" path name))))
  in
  go requires

(* ---- lint ---- *)

module Analysis = Zkflow_analysis

let print_report ~json r =
  if json then print_endline (Analysis.Finding.report_json r)
  else Format.printf "%a@." Analysis.Finding.pp_report r;
  Analysis.Finding.ok r

let parse_error_report path e =
  {
    Analysis.Finding.subject = path;
    instrs = 0;
    blocks = 0;
    findings = [ Analysis.Finding.error ~pass:"parse" "%s" e ];
    proven_safe = false;
  }

(* Lint the two built-in guests (assembled ZR0) plus any Zirc sources
   given on the command line; exit nonzero iff any Error-severity
   finding (warnings don't fail the build). *)
let lint json sarif files =
  let reports =
    Analysis.check ~subject:"aggregation guest"
      (Lazy.force Guests.aggregation_program)
    :: Analysis.check ~subject:"query guest" (Lazy.force Guests.query_program)
    :: List.map
         (fun path ->
           match Zkflow_lang.Zirc_parse.parse_file_positioned path with
           | Ok (prog, positions) ->
             Analysis.check_zirc ~subject:path ~positions prog
           | Error e -> parse_error_report path e)
         files
  in
  if sarif then print_endline (Analysis.Finding.sarif_json reports)
  else List.iter (fun r -> ignore (print_report ~json r)) reports;
  if List.for_all Analysis.Finding.ok reports then Ok ()
  else Error "lint: defects found"

(* ---- audit ---- *)

(* Stable identity of a finding across runs: subject, pass and message.
   Positions shift whenever an unrelated line is edited, while the
   message carries the operative detail — so baselines stay quiet
   under refactors that don't change what the analyzer learned. One
   tab-separated line per key; the file diffs cleanly under git. *)
let finding_key subject (f : Analysis.Finding.t) =
  let flat s =
    String.map (fun c -> if c = '\n' || c = '\t' then ' ' else c) s
  in
  Printf.sprintf "%s\t%s\t%s" (flat subject) f.Analysis.Finding.pass
    (flat f.Analysis.Finding.message)

(* Full audit (value analysis + taint) of the built-in guests and/or
   Zirc sources. With --baseline, exit nonzero only on findings whose
   key is absent from the baseline file; without one, exit nonzero on
   any Error-severity finding (as lint does). *)
let audit json sarif baseline update_baseline builtins files =
  let reports =
    (if builtins || files = [] then
       [
         Analysis.audit ~subject:"aggregation guest"
           (Zkflow_zkvm.Program.instrs (Lazy.force Guests.aggregation_program));
         Analysis.audit ~subject:"query guest"
           (Zkflow_zkvm.Program.instrs (Lazy.force Guests.query_program));
       ]
     else [])
    @ List.map
        (fun path ->
          match Zkflow_lang.Zirc_parse.parse_file_positioned path with
          | Ok (prog, positions) ->
            Analysis.audit_zirc ~subject:path ~positions prog
          | Error e -> parse_error_report path e)
        files
  in
  if sarif then print_endline (Analysis.Finding.sarif_json reports)
  else if json then print_endline (Analysis.Finding.reports_json reports)
  else
    List.iter (fun r -> Format.printf "%a@." Analysis.Finding.pp_report r)
      reports;
  let keys =
    List.concat_map
      (fun (r : Analysis.Finding.report) ->
        List.map (finding_key r.Analysis.Finding.subject) r.Analysis.Finding.findings)
      reports
    |> List.sort_uniq String.compare
  in
  match update_baseline with
  | Some path ->
    write_file path
      (Bytes.of_string (String.concat "" (List.map (fun k -> k ^ "\n") keys)));
    Printf.eprintf "audit: wrote %d finding key(s) to %s\n" (List.length keys)
      path;
    Ok ()
  | None -> (
    match baseline with
    | Some path ->
      let* text = read_file path in
      let known = Hashtbl.create 16 in
      String.split_on_char '\n' (Bytes.to_string text)
      |> List.iter (fun l -> if l <> "" then Hashtbl.replace known l ());
      let fresh = List.filter (fun k -> not (Hashtbl.mem known k)) keys in
      if fresh = [] then Ok ()
      else begin
        List.iter (fun k -> Printf.eprintf "audit: new finding: %s\n" k) fresh;
        Error
          (Printf.sprintf "audit: %d finding(s) not in baseline %s"
             (List.length fresh) path)
      end
    | None ->
      if List.for_all Analysis.Finding.ok reports then Ok ()
      else Error "audit: defects found")

(* ---- verify ---- *)

let verify_inner dir zirc =
  let* board_text = read_file (board_path dir) in
  let* board = Board.import (Bytes.to_string board_text) in
  let* receipt_bytes = read_file (receipts_path dir) in
  let* rounds = decode_rounds receipt_bytes in
  let* chain = Verifier_client.verify_chain ~board rounds in
  Printf.printf "verified %d aggregation round(s); final CLog root %s\n"
    chain.Verifier_client.round_count
    (D.to_hex chain.Verifier_client.final_root);
  let* () =
    if Sys.file_exists (query_path dir) then begin
      let* qbytes = read_file (query_path dir) in
      let* receipt = Receipt.decode qbytes in
      let* journal =
        Verifier_client.verify_query ~query:0
          ~expected_root:chain.Verifier_client.final_root receipt
      in
      Printf.printf "verified query receipt: result=%d matches=%d\n"
        journal.Guests.result journal.Guests.matches;
      Ok ()
    end
    else Ok ()
  in
  match zirc with
  | None -> Ok ()
  | Some path ->
    (* The auditor compiles the (public) query source themselves and
       pins the resulting image — they never trust the operator's
       binary. Convention: journal word 0..7 = the root it ran on. *)
    let* src = Zkflow_lang.Zirc_parse.parse_file path in
    let* program = Zkflow_lang.Zirc.compile src in
    let* cbytes = read_file (dir // "custom.bin") in
    let* receipt = Receipt.decode cbytes in
    let* () = Zkflow_zkproof.Verify.verify ~program receipt in
    let journal = receipt.Receipt.claim.Receipt.journal in
    if Array.length journal < 8 then Error "custom receipt: journal too short"
    else begin
      let root =
        D.of_bytes (Zkflow_zkvm.Guestlib.digest_of_words (Array.sub journal 0 8))
      in
      if not (D.equal root chain.Verifier_client.final_root) then
        Error "custom receipt: ran against a different CLog root"
      else begin
        Printf.printf "verified custom query %s: outputs %s\n" path
          (String.concat ","
             (List.map string_of_int (Array.to_list (Array.sub journal 8 (Array.length journal - 8)))));
        Ok ()
      end
    end

let verify dir zirc events =
  with_events ~append:true events (fun () -> verify_inner dir zirc)

(* ---- monitor ---- *)

(* Shared by monitor/slo/watch: load the flight log, surfacing a
   torn-tail note (crash mid-flush) as a warning instead of a hard
   error — the decodable prefix is still a valid log. *)
let load_events_or_hint dir events =
  let path = match events with Some p -> p | None -> events_path dir in
  match Zkflow_obs.Event.load_jsonl path with
  | Ok (evs, tail_note) ->
    Option.iter (Printf.eprintf "warning: %s\n%!") tail_note;
    Ok evs
  | Error e ->
    Error
      (Printf.sprintf
         "%s (run the workflow with --events %s to record a flight log)" e
         (events_path dir))

(* --strict on monitor and slo: both exit on the one verdict,
   [Monitor.verdict] of the log, naming its reasons. *)
let strict_gate cmd (v : Monitor.verdict) =
  if v.healthy then Ok ()
  else Error (Printf.sprintf "%s: unhealthy: %s" cmd (String.concat ", " v.reasons))

let monitor dir events json strict =
  let* events = load_events_or_hint dir events in
  (* The checkpoint journal is optional context: without it the
     report is built from the event log alone. *)
  let service = Result.to_option (restore_service dir) in
  let report = Monitor.build ?service events in
  if json then print_endline (Jsonx.to_string (Monitor.to_json report))
  else Format.printf "%a@." Monitor.pp report;
  if strict then strict_gate "monitor" report.Monitor.verdict else Ok ()

(* ---- slo ---- *)

let slo dir events json strict =
  let* events = load_events_or_hint dir events in
  let alerts = Slo.evaluate events in
  if json then print_endline (Jsonx.to_string (Slo.to_json alerts))
  else Format.printf "%a@." Slo.pp alerts;
  if strict then strict_gate "slo" (Monitor.verdict events) else Ok ()

(* ---- watch ---- *)

(* The server never exits on its own: it serves until the process is
   killed (CI backgrounds it and kills by pid). *)
let rec serve_forever () =
  Thread.delay 3600.;
  serve_forever ()

let watch dir events listen probe =
  let path = Option.value events ~default:(events_path dir) in
  let handler = Watch.handler (Watch.artifact_source ~events_path:path) in
  match probe with
  | Some path ->
    let r = Watch.probe handler path in
    print_endline r.Zkflow_obs.Httpd.body;
    if r.Zkflow_obs.Httpd.status < 400 then Ok ()
    else
      Error
        (Printf.sprintf "watch: %s -> HTTP %d" path r.Zkflow_obs.Httpd.status)
  | None ->
    let* srv = Zkflow_obs.Httpd.start ~port:listen handler in
    Printf.printf
      "watch: serving http://127.0.0.1:%d (/metrics /healthz /slo); kill to \
       stop\n%!"
      (Zkflow_obs.Httpd.port srv);
    serve_forever ()

(* ---- chaos ---- *)

let chaos dir seed plan_file routers flows rate duration loss queries
    max_restarts json events =
  let events = match events with Some p -> Some p | None -> Some (events_path dir) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  with_events ~append:false events (fun () ->
      let module Fault = Zkflow_fault.Fault in
      let* plan =
        match plan_file with
        | Some path -> Fault.load_plan path
        | None -> Ok (Fault.random_plan ~routers ~seed ())
      in
      let config =
        {
          Chaos.routers;
          flows;
          rate_pps = rate;
          duration_ms = duration;
          loss_rate = loss;
          queries;
          max_restarts;
        }
      in
      let* report = Chaos.run ~dir ~config ~plan () in
      if json then print_endline (Jsonx.to_string (Chaos.to_json report))
      else Format.printf "%a@." Chaos.pp report;
      Chaos.verdict report)

(* ---- serve: the resident daemon ---- *)

(* [zkflow serve] turns the state directory into a running service:
   the router flow logs recovered from rlogs.wal go through the same
   [replay_epoch] as [prove] (the daemon publishes to a fresh board on
   the routers' behalf and proves rounds off-path), then the process
   sits behind the embedded HTTP plane answering memoized proof-backed
   queries until SIGTERM/SIGINT, at which point it drains — finishes
   everything in flight — and flushes board, receipts and events before
   exiting 0. A SIGKILL instead loses nothing durable: the next [serve]
   resumes from the checkpoint WAL and re-proves only the unsynced
   tail. *)

let serve_stop = Atomic.make false

(* A crashed worker restarts after a wait that doubles from
   [restart_wait_s] up to [restart_wait_max_s] while it keeps crashing
   with no round landing in between; a round that lands resets both.
   The crash after [max_restarts] such restarts ends serve through the
   drain-failure path, so a fault every restart meets again (a full
   disk under checkpoints.wal) is an exit, not a loop. *)
let restart_wait_s = 0.1
let restart_wait_max_s = 3.2
let max_restarts = 5

let sleep_unless_stopped s =
  let until = Unix.gettimeofday () +. s in
  while (not (Atomic.get serve_stop)) && Unix.gettimeofday () < until do
    Thread.delay 0.05
  done

let serve dir listen queries_n capacity events =
  let events = match events with Some p -> Some p | None -> Some (events_path dir) in
  let* db_src = recover_store dir in
  Atomic.set serve_stop false;
  (* Trap before replay: an early SIGTERM still drains cleanly. *)
  let trap s = Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set serve_stop true)) in
  trap Sys.sigterm;
  trap Sys.sigint;
  with_events ~append:true events @@ fun () ->
  let db = Db.create ~epoch:epoch_policy () in
  let board = Board.create () in
  let config = { Daemon.default_config with Daemon.queue_capacity = capacity } in
  let* d, restored =
    Daemon.create ~config
      ~proof_params:(Zkflow_zkproof.Params.make ~queries:queries_n)
      ~db ~board ~ckpt_path:(ckpt_path dir) ()
  in
  match Zkflow_obs.Httpd.start ~port:listen (Daemon.handler d) with
  | Error e ->
    Daemon.stop d;
    Error ("serve: " ^ e)
  | Ok srv ->
    Printf.printf "zkflow serve on http://127.0.0.1:%d (/status /healthz /query /flows /metrics /slo)\n%!"
      (Zkflow_obs.Httpd.port srv);
    let windows = Db.windows db_src in
    List.iter (replay_epoch d db_src) windows;
    Printf.printf "replaying %d window(s) over %d epoch(s); %d round(s) restored from checkpoints\n%!"
      (List.length (List.concat_map snd windows)) (List.length windows) restored;
    (* Resident phase: sit behind the HTTP plane until a signal. A
       worker crash here (an armed fault hook, or an I/O error such as
       ENOSPC on a checkpoint write) goes through the same supervised
       restart a real kill would, on the backoff above. *)
    let streak = ref 0 and wait = ref restart_wait_s in
    let landed = ref (Daemon.counters d).Daemon.rounds and gave_up = ref None in
    while (not (Atomic.get serve_stop)) && !gave_up = None do
      Thread.delay 0.1;
      let rounds = (Daemon.counters d).Daemon.rounds in
      if rounds > !landed then begin
        landed := rounds;
        streak := 0;
        wait := restart_wait_s
      end;
      match Daemon.crashed d with
      | None -> ()
      | Some site when !streak >= max_restarts ->
        gave_up := Some (Printf.sprintf "worker crashed %d times at %s" (!streak + 1) site)
      | Some site ->
        Printf.eprintf "worker crashed at %s; restarting in %.1f s\n%!" site !wait;
        sleep_unless_stopped !wait;
        incr streak;
        wait := Float.min restart_wait_max_s (2. *. !wait);
        if not (Atomic.get serve_stop) then (
          match Daemon.restart d with
          | Ok n -> Printf.eprintf "restarted: %d round(s) recovered\n%!" n
          | Error e -> Printf.eprintf "restart failed: %s\n%!" e)
    done;
    let rec drain_with_retry attempts =
      match Daemon.drain d with
      | Ok () -> Ok ()
      | Error e when attempts > 0 && Daemon.crashed d <> None -> (
        match Daemon.restart d with
        | Ok _ -> drain_with_retry (attempts - 1)
        | Error e' -> Error (e ^ "; restart failed: " ^ e'))
      | Error e -> Error e
    in
    let drained =
      match !gave_up with
      | Some e ->
        Printf.eprintf "%s; giving up\n%!" e;
        Error e
      | None ->
        Printf.printf "signal received: draining\n%!";
        drain_with_retry 3
    in
    Zkflow_obs.Httpd.stop srv;
    let c = Daemon.counters d in
    write_file (board_path dir) (Bytes.of_string (Board.export board));
    (* verify accepts a prefix of rounds, so only a whole history
       replaces the receipts.bin an earlier run wrote. *)
    (match Result.bind drained (fun () -> check_complete d db_src) with
    | Ok () -> write_receipts dir (Daemon.service d)
    | Error e -> Printf.eprintf "warning: %s left as it was: %s\n%!" (receipts_path dir) e);
    Daemon.stop d;
    let* () = drained in
    Printf.printf
      "drained: %d window(s) accepted (%d shed, %d duplicate), %d round(s) (%d heal), root %s\n"
      c.Daemon.accepted c.Daemon.shed c.Daemon.duplicates c.Daemon.rounds
      c.Daemon.heal_rounds
      (String.sub (Daemon.root_hex d) 0 16);
    Printf.printf "state flushed to %s (board.txt, receipts.bin, events)\n" dir;
    Ok ()

(* ---- bench-diff ---- *)

let bench_diff old_path new_path threshold min_s json =
  let parse path =
    let* bytes = read_file path in
    match Jsonx.parse (Bytes.to_string bytes) with
    | Ok v -> Ok v
    | Error e -> Error (Printf.sprintf "%s: corrupt artifact: %s" path e)
  in
  let* old_json = parse old_path in
  let* new_json = parse new_path in
  let* report =
    Result.map_error
      (Printf.sprintf "bench-diff %s %s: %s" old_path new_path)
      (Bench_diff.diff ~threshold ~min_s ~old_json ~new_json ())
  in
  if json then print_endline (Jsonx.to_string (Bench_diff.to_json report))
  else Format.printf "%a@." Bench_diff.pp report;
  if Bench_diff.ok report then Ok ()
  else
    Error
      (Printf.sprintf "bench-diff: %d regression(s) (timings beyond %.0f%%, counts on any move)"
         (List.length report.Bench_diff.regressions)
         (threshold *. 100.))

(* ---- cmdliner wiring ---- *)

open Cmdliner

let handle = function
  | Ok () -> 0
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1

let dir_arg =
  Arg.(value & opt string "zkflow-state" & info [ "dir"; "d" ] ~docv:"DIR"
         ~doc:"State directory shared between the subcommands.")

let events_arg =
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE"
         ~doc:"Record the flight-recorder event log to this JSONL file \
               (conventionally DIR/events.jsonl; simulate truncates, later \
               stages append).")

let simulate_cmd =
  let routers = Arg.(value & opt int 4 & info [ "routers" ] ~doc:"Vantage points.") in
  let flows = Arg.(value & opt int 30 & info [ "flows" ] ~doc:"Flow population.") in
  let rate = Arg.(value & opt float 200.0 & info [ "rate" ] ~doc:"Packets per second.") in
  let duration = Arg.(value & opt int 4000 & info [ "duration" ] ~doc:"Duration (ms).") in
  let loss = Arg.(value & opt float 0.02 & info [ "loss" ] ~doc:"Per-hop loss rate.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  let run dir routers flows rate duration loss seed events =
    handle (simulate dir routers flows rate duration loss seed events)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Generate traffic, export RLogs, publish commitments.")
    Term.(const run $ dir_arg $ routers $ flows $ rate $ duration $ loss $ seed
          $ events_arg)

let prove_cmd =
  let queries =
    Arg.(value & opt int 48 & info [ "queries" ] ~doc:"Proof spot-check count.")
  in
  let src = Arg.(value & opt (some string) None & info [ "src" ] ~doc:"Query src IP filter.") in
  let dst = Arg.(value & opt (some string) None & info [ "dst" ] ~doc:"Query dst IP filter.") in
  let metric =
    Arg.(value & opt string "hops" & info [ "metric" ] ~doc:"packets|bytes|hops|losses.")
  in
  let op = Arg.(value & opt string "sum" & info [ "op" ] ~doc:"sum|count|max|min.") in
  let zirc =
    Arg.(value & opt (some string) None & info [ "zirc" ]
           ~doc:"Custom query: a Zirc source file run against the latest CLog.")
  in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record telemetry and write a Chrome trace_event JSON file \
                 (open in chrome://tracing or ui.perfetto.dev).")
  in
  let stats_out =
    Arg.(value & opt (some string) None & info [ "stats" ] ~docv:"FILE"
           ~doc:"Record telemetry and write the counter/histogram/span \
                 snapshot as JSON (checkable with trace-check --counters).")
  in
  let run dir queries src dst metric op zirc trace events stats_out =
    handle (prove dir queries src dst metric op zirc trace events stats_out)
  in
  Cmd.v
    (Cmd.info "prove" ~doc:"Aggregate every epoch under proof; optionally prove a query.")
    Term.(const run $ dir_arg $ queries $ src $ dst $ metric $ op $ zirc $ trace
          $ events_arg $ stats_out)

let stats_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let run dir json = handle (stats dir json) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Summarize the saved prover state: per-round entries, cycles, \
             timings, and whether a round was restored from disk.")
    Term.(const run $ dir_arg $ json)

let trace_check_cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Chrome trace_event JSON file to validate.")
  in
  let min_names =
    Arg.(value & opt int 1 & info [ "min-names" ]
           ~doc:"Fail unless the trace has at least this many distinct span names.")
  in
  let events =
    Arg.(value & opt (some file) None & info [ "events" ] ~docv:"FILE"
           ~doc:"Validate a flight-recorder event log: JSONL schema, monotone \
                 timestamps per track, and router-before-verifier causality.")
  in
  let counters =
    Arg.(value & opt (some file) None & info [ "counters" ] ~docv:"FILE"
           ~doc:"Validate a prove --stats snapshot; combine with --require.")
  in
  let requires =
    Arg.(value & opt_all string [] & info [ "require" ] ~docv:"NAME=MIN"
           ~doc:"With --counters: fail unless counter NAME reached MIN \
                 (repeatable).")
  in
  let run file min_names events counters_file requires =
    handle
      (match (file, events, counters_file) with
      | None, None, None ->
        Error "trace-check: give a trace FILE, --events FILE and/or --counters FILE"
      | _ ->
        let* () = match file with Some f -> trace_check f min_names | None -> Ok () in
        let* () = match events with Some e -> events_check e | None -> Ok () in
        (match counters_file with
        | Some c -> counters_check c requires
        | None ->
          if requires = [] then Ok ()
          else Error "trace-check: --require needs --counters FILE"))
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:"Validate a Chrome trace file, a flight-recorder event log and/or \
             a telemetry counter snapshot.")
    Term.(const run $ file $ min_names $ events $ counters $ requires)

let lint_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let sarif =
    Arg.(value & flag & info [ "sarif" ]
           ~doc:"SARIF 2.1.0 output (one log, one result per finding).")
  in
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Zirc source files to lint (the built-in guests are always checked).")
  in
  let run json sarif files = handle (lint json sarif files) in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze the built-in guests and any Zirc sources.")
    Term.(const run $ json $ sarif $ files)

let audit_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let sarif =
    Arg.(value & flag & info [ "sarif" ]
           ~doc:"SARIF 2.1.0 output (one log, one result per finding).")
  in
  let baseline =
    Arg.(value & opt (some file) None & info [ "baseline" ] ~docv:"FILE"
           ~doc:"Fail only on findings absent from this baseline (one \
                 tab-separated subject/pass/message key per line, as written \
                 by --update-baseline).")
  in
  let update_baseline =
    Arg.(value & opt (some string) None & info [ "update-baseline" ]
           ~docv:"FILE"
           ~doc:"Write the current finding keys to FILE and exit 0.")
  in
  let builtins =
    Arg.(value & flag & info [ "builtins" ]
           ~doc:"Audit the built-in guests in addition to the given files \
                 (they are audited by default when no file is given).")
  in
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Zirc source files to audit.")
  in
  let run json sarif baseline update builtins files =
    handle (audit json sarif baseline update builtins files)
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Full static audit: the lint/value analysis plus taint tracking \
             of untrusted telemetry inputs (sources: input ecalls; sinks: \
             journal commits and memory addresses).")
    Term.(const run $ json $ sarif $ baseline $ update_baseline $ builtins
          $ files)

let verify_cmd =
  let zirc =
    Arg.(value & opt (some string) None & info [ "zirc" ]
           ~doc:"Verify the custom-query receipt against this Zirc source.")
  in
  let run dir zirc events = handle (verify dir zirc events) in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify the receipt chain (and query) from public data only.")
    Term.(const run $ dir_arg $ zirc $ events_arg)

let monitor_cmd =
  let events =
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE"
           ~doc:"Event log to replay (default: DIR/events.jsonl).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"Exit nonzero when the pipeline is unhealthy: an objective \
                 is firing, a router lags or missed an epoch, a coverage gap \
                 is open, a daemon crash has no restart, or a circuit \
                 breaker is open. The same verdict as slo --strict and \
                 /healthz.")
  in
  let run dir events json strict = handle (monitor dir events json strict) in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Replay the flight-recorder event log (and saved prover state) \
             into a health report: per-router commitment lag and gaps, round \
             latency percentiles, verifier rejections by cause, degraded \
             rounds and open coverage gaps, service backlog, and the \
             round-latency trend (the newer half of the done rounds \
             against the older half).")
    Term.(const run $ dir_arg $ events $ json $ strict)

let slo_cmd =
  let events =
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE"
           ~doc:"Event log to evaluate (default: DIR/events.jsonl).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ]
           ~doc:"Exit nonzero when the pipeline is unhealthy: any objective \
                 is firing, or a gauge of the same log fails (the verdict of \
                 monitor --strict and /healthz).")
  in
  let run dir events json strict = handle (slo dir events json strict) in
  Cmd.v
    (Cmd.info "slo"
       ~doc:"Evaluate service-level objectives over the flight-recorder event \
             log with multi-window burn-rate alerting: each objective's bad \
             fraction is judged against its error budget over paired \
             long/short windows, and firing alerts carry the causal keys \
             (router/epoch/round) of the bad events behind them.")
    Term.(const run $ dir_arg $ events $ json $ strict)

let watch_cmd =
  let events =
    Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE"
           ~doc:"Event log to serve (default: DIR/events.jsonl).")
  in
  let listen =
    Arg.(value & opt int 9464 & info [ "listen" ] ~docv:"PORT"
           ~doc:"Loopback port to serve on (0 picks an ephemeral port, \
                 printed at startup).")
  in
  let probe =
    Arg.(value & opt (some string) None & info [ "probe" ] ~docv:"PATH"
           ~doc:"Do not serve: print the response body one request to PATH \
                 (e.g. /slo) would get, then exit — nonzero when the \
                 endpoint would error. Lets tests and CI validate endpoint \
                 schemas without binding a port.")
  in
  let run dir events listen probe = handle (watch dir events listen probe) in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Serve the telemetry plane for a recorded run from its event \
             log alone: /metrics (the log's count per event kind), \
             /healthz (the monitor report under its verdict, 503 when \
             unhealthy) and /slo (burn-rate alerts), re-reading the log on \
             every request; a missing or unreadable log is a 503 on all \
             three. For a live view of a running daemon, use serve.")
    Term.(const run $ dir_arg $ events $ listen $ probe)

let chaos_cmd =
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fault-plan seed (ignored with --plan).")
  in
  let plan =
    Arg.(value & opt (some file) None & info [ "plan" ] ~docv:"FILE"
           ~doc:"JSON fault plan to run (default: a random plan from --seed).")
  in
  let routers = Arg.(value & opt int 3 & info [ "routers" ] ~doc:"Vantage points.") in
  let flows = Arg.(value & opt int 8 & info [ "flows" ] ~doc:"Flow population.") in
  let rate = Arg.(value & opt float 30.0 & info [ "rate" ] ~doc:"Packets per second.") in
  let duration =
    Arg.(value & opt int 11_000 & info [ "duration" ] ~doc:"Duration (ms).")
  in
  let loss = Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"Per-hop loss rate.") in
  let queries =
    Arg.(value & opt int 8 & info [ "queries" ] ~doc:"Proof spot-check count.")
  in
  let max_restarts =
    Arg.(value & opt int 40 & info [ "max-restarts" ]
           ~doc:"Kill/resume budget before the harness gives up.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let run dir seed plan routers flows rate duration loss queries max_restarts
      json events =
    handle
      (chaos dir seed plan routers flows rate duration loss queries max_restarts
         json events)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run one deterministic chaos cycle: simulate traffic, feed it \
             through the resident daemon (the same pipeline as serve) while \
             injecting the plan's faults (router drops/delays/duplicates, \
             prover crashes, checkpoint corruption, ingest floods), kill and \
             restart it, then assert safety (every receipt verifies; the \
             final root is bit-identical to an uninterrupted batch twin), \
             liveness (everything verified or explicitly degraded — never \
             silent loss) and the SLO cross-check (exactly the objectives \
             the injected faults wound fire). Exits nonzero on any \
             violation.")
    Term.(const run $ dir_arg $ seed $ plan $ routers $ flows $ rate $ duration
          $ loss $ queries $ max_restarts $ json $ events_arg)

let serve_cmd =
  let listen =
    Arg.(value & opt int 0 & info [ "listen" ] ~docv:"PORT"
           ~doc:"Loopback port for the query/health plane (0 picks an \
                 ephemeral port, printed at startup).")
  in
  let queries =
    Arg.(value & opt int 8 & info [ "queries" ] ~doc:"Proof spot-check count.")
  in
  let capacity =
    Arg.(value & opt int 64 & info [ "capacity" ]
           ~doc:"Bounded ingest queue depth; windows past it are shed \
                 (rejected explicitly), never buffered without limit.")
  in
  let run dir listen queries capacity events =
    handle (serve dir listen queries capacity events)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident telemetry daemon over a simulated state \
             directory: replay the recovered flow log through the bounded \
             ingest queue, prove rounds continuously off the ingest path, \
             and answer memoized proof-backed queries over HTTP (/status \
             /healthz /query /flows /metrics /slo) until SIGTERM/SIGINT, \
             then drain and flush all state. A SIGKILL loses nothing \
             durable: the next serve resumes from the checkpoint WAL.")
    Term.(const run $ dir_arg $ listen $ queries $ capacity $ events_arg)

let bench_diff_cmd =
  (* plain strings, not Arg.file: a missing path must take read_file's
     one-line error, not cmdliner's usage dump *)
  let old_file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.json"
           ~doc:"Baseline bench artifact.")
  in
  let new_file =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json"
           ~doc:"Candidate bench artifact.")
  in
  let threshold =
    Arg.(value & opt float 0.25 & info [ "threshold" ]
           ~doc:"Relative slowdown of a timing that counts as a regression \
                 (0.25 = 25%). Every other unit (cycles, bytes, bits) \
                 regresses on any move the worse way.")
  in
  let min_s =
    Arg.(value & opt float 0.05 & info [ "min-s" ]
           ~doc:"Ignore metrics in seconds where both sides are below this \
                 many seconds (absolute noise floor; cycle, byte and bit \
                 counts are always compared).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let run old_f new_f threshold min_s json =
    handle (bench_diff old_f new_f threshold min_s json)
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:"Compare two bench JSON artifacts row by row, matching rows by \
             their config, and exit nonzero on a timing that moved the \
             worse way beyond the threshold, on any other metric that \
             moved the worse way at all, or when the two artifacts \
             share no row or metric.")
    Term.(const run $ old_file $ new_file $ threshold $ min_s $ json)

let () =
  let info =
    Cmd.info "zkflow" ~version:"1.0.0"
      ~doc:"Verifiable network telemetry without special-purpose hardware."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            simulate_cmd; prove_cmd; lint_cmd; audit_cmd; verify_cmd;
            stats_cmd; trace_check_cmd; monitor_cmd; slo_cmd; watch_cmd;
            chaos_cmd; serve_cmd; bench_diff_cmd;
          ]))
