(* End-to-end CLI tests: drive the installed binary the way a user
   (or the CI smoke job) does. Covers the flight-recorder workflow —
   simulate/prove/verify with --events, then monitor and trace-check
   over the recorded log — the state-directory contract (prove and
   serve drive rounds alike, in either order, and prove is strict and
   resumable), plus the failure-mode contracts: stats on
   missing/corrupt state is a one-line error with a nonzero exit, and
   bench-diff exits nonzero exactly when a regression is present, or
   with a one-line error on a missing or corrupt artifact. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* This test lives in _build/default/test and the binary in
   _build/default/bin; resolve it relative to the running executable
   so the path holds under both `dune runtest` and `dune exec`. *)
let zkflow =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    (Filename.concat "bin" "zkflow.exe")

let run args =
  let cmd = Printf.sprintf "%s %s 2>&1" zkflow (String.concat " " args) in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "zkflow-cli-%d-%d" (Unix.getpid ()) !counter)
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d

let write_text path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* One health verdict: monitor --strict, slo --strict and watch
   --probe /healthz give one exit code on a state directory's event
   log, 0 when [reasons] is empty and 1 otherwise, and each names
   every reason. *)
let check_one_verdict dir ~reasons =
  List.iter
    (fun args ->
      let code, out = run args in
      let what = List.hd args in
      check_int (what ^ ": " ^ out) (if reasons = [] then 0 else 1) code;
      List.iter
        (fun r -> check_bool (what ^ " names " ^ r ^ ": " ^ out) true (contains ~needle:r out))
        reasons)
    [
      [ "monitor"; "--dir"; dir; "--strict" ];
      [ "slo"; "--dir"; dir; "--strict" ];
      [ "watch"; "--dir"; dir; "--probe"; "/healthz" ];
    ]

(* Sparse traffic: 12 windows over 3 epochs, 5 of them empty. *)
let sparse_flags =
  [ "--seed"; "1"; "--routers"; "4"; "--flows"; "4"; "--rate"; "3"; "--duration";
    "20000"; "--loss"; "0.3" ]

let simulate_sparse dir =
  let code, out =
    run
      ([ "simulate"; "--dir"; dir; "--events"; Filename.concat dir "events.jsonl" ]
      @ sparse_flags)
  in
  check_int ("simulate: " ^ out) 0 code

(* ---- stats failure modes ---- *)

let test_stats_missing_state () =
  let dir = fresh_dir () in
  let code, out = run [ "stats"; "--dir"; dir ] in
  check_int "nonzero exit" 1 code;
  check_bool "one-line error" true (List.length (String.split_on_char '\n' (String.trim out)) = 1);
  check_bool "says error" true (contains ~needle:"error:" out);
  check_bool "no backtrace" false (contains ~needle:"Raised" out)

let test_stats_corrupt_checkpoints () =
  let dir = fresh_dir () in
  let code, _ = run [ "simulate"; "--dir"; dir; "--flows"; "4"; "--rate"; "50"; "--duration"; "1500" ] in
  check_int "simulate ok" 0 code;
  write_text (Filename.concat dir "checkpoints.wal") "garbage, not wire format";
  let code, out = run [ "stats"; "--dir"; dir ] in
  check_int "nonzero exit" 1 code;
  check_bool "one-line error" true (List.length (String.split_on_char '\n' (String.trim out)) = 1);
  check_bool "names the file" true (contains ~needle:"checkpoints.wal" out);
  check_bool "diagnosis, not backtrace" true (contains ~needle:"corrupt state" out);
  check_bool "no backtrace" false (contains ~needle:"Raised" out)

(* stats reports the spot-check count the receipts carry, not a
   default: after prove --queries 8 it must say 8, in text and JSON;
   and when rounds differ it names each count with its rounds. *)
let test_stats_reports_seal_queries () =
  let dir = fresh_dir () in
  simulate_sparse dir;
  let code, out = run [ "prove"; "--dir"; dir; "--queries"; "8" ] in
  check_int ("prove: " ^ out) 0 code;
  let code, out = run [ "stats"; "--dir"; dir ] in
  check_int ("stats: " ^ out) 0 code;
  check_bool ("8 spot checks: " ^ out) true (contains ~needle:"proof params: 8 spot checks" out);
  check_bool "bits of 8 checks" true
    (contains
       ~needle:
         (Printf.sprintf "%.2f soundness bits"
            (Zkflow_zkproof.Params.soundness_bits (Zkflow_zkproof.Params.make ~queries:8)))
       out);
  let code, out = run [ "stats"; "--dir"; dir; "--json" ] in
  check_int "stats --json exit" 0 code;
  let module J = Zkflow_util.Jsonx in
  (match J.parse (String.trim out) with
  | Error e -> Alcotest.fail ("stats json does not parse: " ^ e)
  | Ok v -> (
    match J.member "proof_params" v with
    | Some (J.Arr [ p ]) ->
      check_bool "queries 8" true (J.member "queries" p = Some (J.Num 8.));
      check_bool "names its rounds" true
        (J.member "rounds" p = Some (J.Arr [ J.Num 0.; J.Num 1.; J.Num 2. ]))
    | _ -> Alcotest.fail ("one proof_params entry expected: " ^ out)));
  (* tear the last row off and re-prove it with 16 spot checks *)
  let ckpt = Filename.concat dir "checkpoints.wal" in
  let rows = In_channel.with_open_bin ckpt In_channel.input_all in
  write_text ckpt (String.sub rows 0 (String.length rows - 50));
  let code, out = run [ "prove"; "--dir"; dir; "--queries"; "16" ] in
  check_int ("re-prove: " ^ out) 0 code;
  let code, out = run [ "stats"; "--dir"; dir ] in
  check_int ("stats: " ^ out) 0 code;
  check_bool ("names 8 with its rounds: " ^ out) true
    (contains ~needle:"8 spot checks" out && contains ~needle:"in round(s) 0,1\n" out);
  check_bool ("names 16 with its round: " ^ out) true
    (contains ~needle:"16 spot checks" out && contains ~needle:"in round(s) 2\n" out)

(* ---- the flight-recorder workflow ---- *)

let test_events_workflow () =
  let dir = fresh_dir () in
  let events = Filename.concat dir "events.jsonl" in
  let code, out =
    run
      [ "simulate"; "--dir"; dir; "--events"; events; "--flows"; "6"; "--rate";
        "80"; "--duration"; "2000"; "--routers"; "3" ]
  in
  check_int ("simulate: " ^ out) 0 code;
  let code, out =
    run [ "prove"; "--dir"; dir; "--events"; events; "--queries"; "8"; "--src"; "10.0.0.1" ]
  in
  check_int ("prove: " ^ out) 0 code;
  let code, out = run [ "verify"; "--dir"; dir; "--events"; events ] in
  check_int ("verify: " ^ out) 0 code;
  (* the log validates: schema, monotone tracks, causality *)
  let code, out = run [ "trace-check"; "--events"; events ] in
  check_int ("trace-check: " ^ out) 0 code;
  (* the health report sees a clean pipeline *)
  let code, out = run [ "monitor"; "--dir"; dir; "--strict" ] in
  check_int ("monitor: " ^ out) 0 code;
  check_bool "healthy" true (contains ~needle:"health: OK" out);
  check_bool "no rejects" true (contains ~needle:"rejects: none" out);
  check_bool "latency percentiles" true (contains ~needle:"p99" out);
  (* machine-readable report parses and agrees *)
  let code, out = run [ "monitor"; "--dir"; dir; "--json" ] in
  check_int "monitor --json exit" 0 code;
  (match Zkflow_util.Jsonx.parse (String.trim out) with
  | Error e -> Alcotest.fail ("monitor json does not parse: " ^ e)
  | Ok v ->
    check_bool "healthy in json" true
      (Zkflow_util.Jsonx.member "healthy" v = Some (Zkflow_util.Jsonx.Bool true)));
  (* stats works and surfaces percentiles *)
  let code, out = run [ "stats"; "--dir"; dir ] in
  check_int ("stats: " ^ out) 0 code;
  check_bool "round cycle percentiles" true (contains ~needle:"round cycles: p50" out);
  check_bool "soundness bits surfaced" true (contains ~needle:"soundness bits" out)

(* ---- the state-directory contract ----

   A router commits to every window, the empty ones included, and
   prove and serve drive rounds through the same daemon over the same
   windows, so either may follow the other on one state directory. *)

let prove_dir dir =
  let code, out =
    run [ "prove"; "--dir"; dir; "--queries"; "8"; "--events"; Filename.concat dir "events.jsonl" ]
  in
  check_int ("prove: " ^ out) 0 code

(* Start [zkflow serve] (it appends to DIR/events.jsonl), wait until it
   is up, then SIGTERM: the drain proves every replayed epoch and
   flushes board.txt and receipts.bin. Returns the exit status and
   what serve printed. *)
let serve_run dir =
  let log = Filename.concat dir "serve.log" in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process zkflow
      [| zkflow; "serve"; "--dir"; dir; "--listen"; "0" |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let read () = In_channel.with_open_bin log In_channel.input_all in
  let rec up n =
    if contains ~needle:"zkflow serve on" (read ()) then true
    else if n = 0 || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then false
    else (
      Unix.sleepf 0.05;
      up (n - 1))
  in
  if not (up 400) then begin
    (try
       Unix.kill pid Sys.sigkill;
       ignore (Unix.waitpid [] pid)
     with Unix.Unix_error _ -> ());
    Alcotest.fail ("serve did not come up: " ^ read ())
  end;
  Unix.kill pid Sys.sigterm;
  let status = snd (Unix.waitpid [] pid) in
  (status, read ())

let serve_dir dir =
  match serve_run dir with
  | Unix.WEXITED 0, log -> check_bool "serve wrote receipts" true (contains ~needle:"receipts written" log)
  | _, log -> Alcotest.fail ("serve did not drain cleanly: " ^ log)

(* A second driver run after a drained one is a planned start, not a
   restart, so every surface reads the directory healthy. *)
let verify_and_monitor dir =
  let code, out = run [ "verify"; "--dir"; dir; "--events"; Filename.concat dir "events.jsonl" ] in
  check_int ("verify: " ^ out) 0 code;
  check_bool "three rounds" true (contains ~needle:"verified 3 aggregation round(s)" out);
  let code, out = run [ "monitor"; "--dir"; dir; "--strict" ] in
  check_int ("monitor --strict: " ^ out) 0 code;
  check_bool "healthy" true (contains ~needle:"health: OK" out);
  check_one_verdict dir ~reasons:[]

let test_prove_then_serve () =
  let dir = fresh_dir () in
  simulate_sparse dir;
  let board = In_channel.with_open_bin (Filename.concat dir "board.txt") In_channel.input_all in
  prove_dir dir;
  serve_dir dir;
  check_bool "serve rewrote the same board" true
    (board = In_channel.with_open_bin (Filename.concat dir "board.txt") In_channel.input_all);
  verify_and_monitor dir

let test_serve_then_prove () =
  let dir = fresh_dir () in
  simulate_sparse dir;
  serve_dir dir;
  prove_dir dir;
  verify_and_monitor dir

(* prove stays strict: a window with no commitment on the board is an
   error naming the router and the epoch, and an epoch whose round
   failed is an error naming the epoch and the round's error. It saves
   nothing its strictness refuses, so once the fault is mended a
   re-run lands on a clean run's receipts.bin and checkpoints.wal byte
   for byte. *)
let test_strict_prove_names_failures () =
  let read dir p = In_channel.with_open_bin (Filename.concat dir p) In_channel.input_all in
  let clean = fresh_dir () in
  simulate_sparse clean;
  prove_dir clean;
  let mended dir =
    prove_dir dir;
    check_bool "receipts as a clean run's" true (read clean "receipts.bin" = read dir "receipts.bin");
    check_bool "journal as a clean run's" true
      (read clean "checkpoints.wal" = read dir "checkpoints.wal")
  in
  let dir = fresh_dir () in
  simulate_sparse dir;
  let path = Filename.concat dir "board.txt" in
  let board = read dir "board.txt" in
  (* drop router 2's first line: its later epochs stay monotone *)
  let dropped =
    List.find
      (fun l -> String.length l > 2 && String.sub l 0 2 = "2 ")
      (String.split_on_char '\n' board)
  in
  let router, epoch =
    match String.split_on_char ' ' dropped with
    | r :: e :: _ -> (r, e)
    | _ -> Alcotest.fail ("board line: " ^ dropped)
  in
  write_text path
    (String.concat ""
       (List.filter_map
          (fun l -> if l = dropped || l = "" then None else Some (l ^ "\n"))
          (String.split_on_char '\n' board)));
  let code, out = run [ "prove"; "--dir"; dir; "--queries"; "8" ] in
  check_bool ("nonzero exit: " ^ out) true (code <> 0);
  check_bool ("names router and epoch: " ^ out) true
    (contains ~needle:(Printf.sprintf "router %s has no published commitment for epoch %s" router epoch) out);
  check_bool "no receipts" false (Sys.file_exists (Filename.concat dir "receipts.bin"));
  check_bool "no journal" false (Sys.file_exists (Filename.concat dir "checkpoints.wal"));
  write_text path board;
  mended dir;
  (* a flipped bit in a stored record breaks that window's match with
     its published commitment; the record sits in a middle epoch, so
     the epoch before it is proved and the epoch after it is not *)
  let dir = fresh_dir () in
  simulate_sparse dir;
  let wal = Filename.concat dir "rlogs.wal" in
  let rows =
    match Zkflow_store.Wal.replay wal with Ok rows -> rows | Error e -> Alcotest.fail e
  in
  let epoch_of row =
    match Zkflow_store.Codec.record_of_row row with
    | Ok r ->
      Zkflow_store.Epoch.of_ts Zkflow_store.Epoch.default r.Zkflow_netflow.Record.last_ts
    | Error e -> Alcotest.fail e
  in
  let epochs = List.sort_uniq compare (List.map epoch_of rows) in
  let middle = List.nth epochs 1 in
  check_bool "an epoch after the flipped one" true (List.length epochs > 2);
  (* the row's file offset: each row is a 4-byte length and its bytes *)
  let rec offset pos = function
    | [] -> Alcotest.fail "no row in the middle epoch"
    | row :: rest ->
      if epoch_of row = middle then pos else offset (pos + 4 + Bytes.length row) rest
  in
  let at = offset 0 rows + 24 in
  let original = read dir "rlogs.wal" in
  let flipped = Bytes.of_string original in
  Bytes.set flipped at (Char.chr (Char.code (Bytes.get flipped at) lxor 1));
  write_text wal (Bytes.to_string flipped);
  let code, out = run [ "prove"; "--dir"; dir; "--queries"; "8" ] in
  check_bool ("nonzero exit: " ^ out) true (code <> 0);
  check_bool ("names the epoch and the round's error: " ^ out) true
    (contains
       ~needle:(Printf.sprintf "epoch %d: no round: aggregation guest: router commitment mismatch" middle)
       out);
  (match Zkflow_store.Wal.replay (Filename.concat dir "checkpoints.wal") with
  | Ok saved -> check_int "journal holds only the epoch before it" 1 (List.length saved)
  | Error e -> Alcotest.fail e);
  check_bool "no receipts" false (Sys.file_exists (Filename.concat dir "receipts.bin"));
  write_text wal original;
  mended dir

(* A torn checkpoint journal: prove keeps the intact rows, re-proves
   the rest, and lands on the same receipts.bin byte for byte. *)
let test_prove_resumes_truncated_checkpoints () =
  let dir = fresh_dir () in
  simulate_sparse dir;
  prove_dir dir;
  let read p = In_channel.with_open_bin (Filename.concat dir p) In_channel.input_all in
  let receipts = read "receipts.bin" in
  let ckpt = read "checkpoints.wal" in
  write_text (Filename.concat dir "checkpoints.wal")
    (String.sub ckpt 0 (String.length ckpt - 100));
  let code, out = run [ "prove"; "--dir"; dir; "--queries"; "8" ] in
  check_int ("prove: " ^ out) 0 code;
  check_bool ("resumed: " ^ out) true (contains ~needle:"resumed 2 checkpointed round(s)" out);
  check_bool "re-proved one epoch" true (contains ~needle:"epoch 3:" out);
  check_bool "receipts byte-identical" true (receipts = read "receipts.bin");
  check_bool "journal byte-identical" true (ckpt = read "checkpoints.wal")

(* A serve whose drain fails (every checkpoint write hits ENOSPC, so
   the worker crashes through all its restarts) exits nonzero and
   leaves the receipts.bin an earlier prove wrote. Skipped where
   /dev/full does not exist. *)
let test_failed_serve_keeps_receipts () =
  if Sys.file_exists "/dev/full" then begin
    let dir = fresh_dir () in
    simulate_sparse dir;
    prove_dir dir;
    let read p = In_channel.with_open_bin (Filename.concat dir p) In_channel.input_all in
    let receipts = read "receipts.bin" in
    Sys.remove (Filename.concat dir "checkpoints.wal");
    Unix.symlink "/dev/full" (Filename.concat dir "checkpoints.wal");
    let status, log = serve_run dir in
    check_bool ("nonzero exit: " ^ log) true (status <> Unix.WEXITED 0);
    check_bool ("warns: " ^ log) true (contains ~needle:"receipts.bin left as it was" log);
    check_bool "receipts untouched" true (receipts = read "receipts.bin")
  end

(* A fault every restart meets again ends serve on its own: with
   checkpoints.wal on /dev/full each round's checkpoint write fails
   with ENOSPC, and serve restarts the worker on a doubling wait at
   most five times in a row before it exits nonzero naming the site.
   No SIGTERM is sent. Skipped where /dev/full does not exist. *)
let test_serve_crash_loop_gives_up () =
  if Sys.file_exists "/dev/full" then begin
    let dir = fresh_dir () in
    simulate_sparse dir;
    Unix.symlink "/dev/full" (Filename.concat dir "checkpoints.wal");
    let log = Filename.concat dir "serve.log" in
    let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    let pid =
      Unix.create_process zkflow
        [| zkflow; "serve"; "--dir"; dir; "--listen"; "0" |]
        Unix.stdin fd fd
    in
    Unix.close fd;
    let read () = In_channel.with_open_bin log In_channel.input_all in
    let deadline = Unix.gettimeofday () +. 60. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.05;
        wait ()
      | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.fail ("serve still running after 60 s: " ^ read ())
      | _, status -> status
    in
    let status = wait () in
    let out = read () in
    let count needle =
      List.length (List.filter (fun l -> contains ~needle l) (String.split_on_char '\n' out))
    in
    check_bool ("nonzero exit: " ^ out) true (status <> Unix.WEXITED 0);
    check_bool ("names the ENOSPC site: " ^ out) true
      (contains ~needle:"worker crashed 6 times at Sys_error(\"No space left on device\")" out);
    check_int ("five restarts: " ^ out) 5 (count "restarting in");
    check_bool ("backs off: " ^ out) true (contains ~needle:"restarting in 1.6 s" out)
  end

(* One [store.window] event per window per process: simulate's
   publisher reads each window once, and prove's replay hands windows
   to the daemon without announcing them, so the daemon's round fetch
   is prove's one read. *)
let test_store_window_once_per_process () =
  let dir = fresh_dir () in
  let events = Filename.concat dir "events.jsonl" in
  let windows () =
    let module J = Zkflow_util.Jsonx in
    In_channel.with_open_bin events In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match J.parse line with
           | Ok v when J.member "kind" v = Some (J.Str "store.window") -> (
             match (J.member "router" v, J.member "epoch" v) with
             | Some (J.Num r), Some (J.Num e) -> Some (int_of_float r, int_of_float e)
             | _ -> Alcotest.fail ("store.window without a window: " ^ line))
           | _ -> None)
    |> List.sort compare
  in
  let per_window n ws =
    let distinct = List.sort_uniq compare ws in
    check_int "twelve windows" 12 (List.length distinct);
    List.iter
      (fun w ->
        check_int
          (Printf.sprintf "r%d/e%d" (fst w) (snd w))
          n
          (List.length (List.filter (( = ) w) ws)))
      distinct
  in
  simulate_sparse dir;
  per_window 1 (windows ());
  prove_dir dir;
  per_window 2 (windows ());
  let code, out = run [ "monitor"; "--dir"; dir; "--strict" ] in
  check_int ("monitor --strict: " ^ out) 0 code;
  let code, out = run [ "trace-check"; "--events"; events ] in
  check_int ("trace-check: " ^ out) 0 code

(* ---- seal version ----

   A state dir whose receipts predate the seal tag (the layout before
   it began each encoding with the image id) is refused by name: the
   verifier does not try to read an older seal as the current one. *)

let test_verify_refuses_old_seal () =
  let dir = fresh_dir () in
  let code, out =
    run [ "simulate"; "--dir"; dir; "--flows"; "6"; "--rate"; "80"; "--duration"; "2000" ]
  in
  check_int ("simulate: " ^ out) 0 code;
  let code, out = run [ "prove"; "--dir"; dir; "--queries"; "8" ] in
  check_int ("prove: " ^ out) 0 code;
  let path = Filename.concat dir "receipts.bin" in
  let module Wire = Zkflow_util.Wire in
  let rounds =
    match
      Wire.decode
        (Bytes.of_string (In_channel.with_open_bin path In_channel.input_all))
        (fun r ->
          Wire.r_list r (fun () ->
              let epoch = Wire.r_int r in
              (epoch, Wire.r_bytes r)))
    with
    | Ok rounds -> rounds
    | Error e -> Alcotest.fail ("receipts.bin: " ^ e)
  in
  let tag = 1 + String.length Zkflow_zkproof.Receipt.seal_tag in
  let untagged receipt = Bytes.sub receipt tag (Bytes.length receipt - tag) in
  (* an earlier seal version's tag: v4 one version back, v3 two, v2
     three *)
  let version v receipt =
    let b = Bytes.copy receipt in
    Bytes.set b (tag - 1) v;
    b
  in
  List.iter
    (fun (what, rewrite) ->
      let w = Wire.writer () in
      Wire.w_list w
        (fun (epoch, receipt) ->
          Wire.w_int w epoch;
          Wire.w_bytes w (rewrite receipt))
        rounds;
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc (Wire.contents w));
      let code, out = run [ "verify"; "--dir"; dir ] in
      check_bool (what ^ ": nonzero exit: " ^ out) true (code <> 0);
      check_bool (what ^ ": names the version: " ^ out) true
        (contains ~needle:"receipt: unsupported seal version" out))
    [
      ("untagged", untagged);
      ("seal v2 tag", version '2');
      ("seal v3 tag", version '3');
      ("seal v4 tag", version '4');
    ]

(* A healed delay: the late export's gap opened and healed, so
   coverage fires while nothing stays open. *)
let test_healed_delay_one_verdict () =
  let dir = fresh_dir () in
  let ev ?router ?epoch ?round ts kind =
    Zkflow_util.Jsonx.to_string
      (Zkflow_obs.Event.to_json
         { Zkflow_obs.Event.ts_ns = ts; track = "test"; kind; router; epoch; round; query = None;
           attrs = [] })
  in
  let publishes =
    List.concat_map
      (fun epoch ->
        List.map (fun router -> ev ~router ~epoch ((10 * epoch) + router) "board.publish") [ 0; 1 ])
      [ 0; 1; 2 ]
  in
  write_text (Filename.concat dir "events.jsonl")
    (String.concat "\n"
       (publishes
       @ [ ev ~router:1 ~epoch:1 ~round:1 30 "prover.gap.open";
           ev ~router:1 ~epoch:1 ~round:3 40 "prover.gap.heal" ])
    ^ "\n");
  check_one_verdict dir ~reasons:[ "coverage" ]

let test_monitor_missing_log () =
  let dir = fresh_dir () in
  let code, out = run [ "monitor"; "--dir"; dir ] in
  check_int "nonzero exit" 1 code;
  check_bool "points at --events" true (contains ~needle:"--events" out)

(* simulate without --events writes no flight log. Every health
   surface then fails naming the missing file: the strict gates exit 1,
   and each watch endpoint answers 503, as for an unreadable log. *)
let test_no_flight_log_every_surface_fails () =
  let dir = fresh_dir () in
  let code, out =
    run [ "simulate"; "--dir"; dir; "--flows"; "6"; "--rate"; "40"; "--duration"; "2000" ]
  in
  check_int ("simulate: " ^ out) 0 code;
  check_bool "no events.jsonl" false (Sys.file_exists (Filename.concat dir "events.jsonl"));
  List.iter
    (fun args ->
      let code, out = run args in
      let what = String.concat " " args in
      check_int (what ^ ": " ^ out) 1 code;
      check_bool (what ^ " names the log: " ^ out) true (contains ~needle:"events.jsonl" out))
    [
      [ "monitor"; "--dir"; dir; "--strict" ];
      [ "slo"; "--dir"; dir; "--strict" ];
      [ "watch"; "--dir"; dir; "--probe"; "/healthz" ];
      [ "watch"; "--dir"; dir; "--probe"; "/slo" ];
      [ "watch"; "--dir"; dir; "--probe"; "/metrics" ];
      [ "watch"; "--dir"; Filename.concat dir "absent"; "--probe"; "/healthz" ];
    ]

(* ---- chaos ---- *)

let chaos_flags = [ "--routers"; "2"; "--flows"; "6"; "--rate"; "25"; "--duration"; "9000" ]

let test_chaos_crash_plan_names_restarts () =
  let dir = fresh_dir () in
  let plan = Filename.concat dir "plan.json" in
  write_text plan
    {|{"seed": 1, "name": "cli-crash",
       "faults": [{"kind": "crash", "site": "agg.pre_checkpoint", "hits": 1}]}|};
  let code, out =
    run ([ "chaos"; "--dir"; dir; "--plan"; plan; "--json" ] @ chaos_flags)
  in
  check_int ("chaos: " ^ out) 0 code;
  (match Zkflow_util.Jsonx.parse (String.trim out) with
  | Error e -> Alcotest.fail ("chaos json does not parse: " ^ e)
  | Ok v ->
    let bool_field k = Zkflow_util.Jsonx.member k v = Some (Zkflow_util.Jsonx.Bool true) in
    check_bool "safety_ok" true (bool_field "safety_ok");
    check_bool "liveness_ok" true (bool_field "liveness_ok");
    check_bool "root bit-identical to twin" true
      (Zkflow_util.Jsonx.member "final_root" v = Zkflow_util.Jsonx.member "twin_root" v);
    check_bool "status complete" true
      (Zkflow_util.Jsonx.member "status" v = Some (Zkflow_util.Jsonx.Str "complete")));
  (* the recovery is a prover restart, and every surface says so *)
  let _, out = run [ "monitor"; "--dir"; dir ] in
  check_bool "reports the crash" true (contains ~needle:"crashes: 1 injected" out);
  check_one_verdict dir ~reasons:[ "prover-restarts" ]

(* The flood phase's throwaway daemon records into its own ring; only
   its admissions reach the run's log. Its publications used to make
   the main run's routers read as lagging. *)
let test_chaos_flood_names_admission_only () =
  let dir = fresh_dir () in
  let plan = Filename.concat dir "plan.json" in
  write_text plan
    {|{"seed": 202, "name": "cli-flood",
       "faults": [{"kind": "flood", "windows": 12, "capacity": 4}]}|};
  let code, out = run ([ "chaos"; "--dir"; dir; "--plan"; plan ] @ chaos_flags) in
  check_int ("chaos: " ^ out) 0 code;
  check_bool ("slo fired = expected: " ^ out) true
    (contains ~needle:"expected [ingest-admission] fired [ingest-admission] -> OK" out);
  check_one_verdict dir ~reasons:[ "ingest-admission" ];
  List.iter
    (fun args ->
      let _, out = run args in
      check_bool (List.hd args ^ " does not name router-lag: " ^ out) false
        (contains ~needle:"router-lag" out))
    [
      [ "monitor"; "--dir"; dir; "--strict" ];
      [ "slo"; "--dir"; dir; "--strict" ];
      [ "watch"; "--dir"; dir; "--probe"; "/healthz" ];
    ]

let test_chaos_dropped_export_fails_strict_monitor () =
  let dir = fresh_dir () in
  let plan = Filename.concat dir "plan.json" in
  write_text plan
    {|{"seed": 4, "name": "cli-drop",
       "faults": [{"kind": "drop", "router": 1, "epoch": 0}]}|};
  let code, out = run ([ "chaos"; "--dir"; dir; "--plan"; plan ] @ chaos_flags) in
  (* explicit degradation is a successful chaos run... *)
  check_int ("chaos: " ^ out) 0 code;
  check_bool "degraded verdict" true (contains ~needle:"degraded" out);
  check_bool "gap names the export" true (contains ~needle:"r1/e0" out);
  (* ...but the open gap fails the strict health gate *)
  let code, out = run [ "monitor"; "--dir"; dir; "--strict" ] in
  check_int "strict monitor fails" 1 code;
  check_bool "says degraded" true (contains ~needle:"DEGRADED" out);
  check_one_verdict dir ~reasons:[ "coverage"; "open-gaps" ]

(* ---- the live telemetry plane: slo, watch, monitor trends ---- *)

(* The monitor's round_latency_trend JSON against [expected], the
   trend of the same saved log. *)
let check_trend_json (expected : Zkflow_core.Monitor.trend option) json =
  let module J = Zkflow_util.Jsonx in
  match (expected, json) with
  | None, J.Null -> ()
  | None, _ -> Alcotest.fail "monitor reports a trend the log does not support"
  | Some _, J.Null -> Alcotest.fail "monitor reports no trend over a log that has one"
  | Some t, j ->
    let num k = match J.member k j with Some (J.Num f) -> Some f | _ -> None in
    check_bool "trend names the metric" true
      (J.member "metric" j = Some (J.Str "prover.round_ns"));
    List.iter
      (fun (k, v) -> Alcotest.(check (option (float 0.))) k (Some (float_of_int v)) (num k))
      [
        ("last_count", t.Zkflow_core.Monitor.last_count);
        ("last_p95_ns", t.last_p95_ns);
        ("prev_count", t.prev_count);
        ("prev_p95_ns", t.prev_p95_ns);
      ];
    Alcotest.(check (option (float 1e-12))) "ratio" t.trend_ratio (num "ratio")

(* One recorded pipeline feeds every surface from its event log alone:
   the strict SLO verdict passes on a clean run, every watch --probe
   endpoint serves its schema, /metrics lists the log's count per
   event kind, and /healthz and monitor --json are functions of the
   log: two runs print the same bytes, and the trend monitor prints is
   the trend of the saved log. *)
let test_telemetry_plane_clean_run () =
  let dir = fresh_dir () in
  let events = Filename.concat dir "events.jsonl" in
  let code, out =
    run
      [ "simulate"; "--dir"; dir; "--events"; events; "--flows"; "60"; "--rate";
        "60"; "--duration"; "6000"; "--routers"; "2" ]
  in
  check_int ("simulate: " ^ out) 0 code;
  let code, out = run [ "prove"; "--dir"; dir; "--events"; events; "--queries"; "8" ] in
  check_int ("prove: " ^ out) 0 code;
  (* clean run: every objective met, strict exits 0 *)
  let code, out = run [ "slo"; "--dir"; dir; "--strict" ] in
  check_int ("slo --strict: " ^ out) 0 code;
  check_bool "all objectives met" true (contains ~needle:"all objectives met" out);
  let code, out = run [ "slo"; "--dir"; dir; "--json" ] in
  check_int "slo --json exit" 0 code;
  (match Zkflow_util.Jsonx.parse (String.trim out) with
  | Error e -> Alcotest.fail ("slo json does not parse: " ^ e)
  | Ok v ->
    check_bool "slo schema" true
      (Zkflow_util.Jsonx.member "schema" v
      = Some (Zkflow_util.Jsonx.Str "zkflow-slo/v1"));
    check_bool "ok" true
      (Zkflow_util.Jsonx.member "ok" v = Some (Zkflow_util.Jsonx.Bool true)));
  (* every endpoint probes schema-valid from the artifacts *)
  let code, out = run [ "watch"; "--dir"; dir; "--probe"; "/healthz" ] in
  check_int ("watch /healthz: " ^ out) 0 code;
  let _, again = run [ "watch"; "--dir"; dir; "--probe"; "/healthz" ] in
  Alcotest.(check string) "/healthz is a function of the log" out again;
  (match Zkflow_util.Jsonx.parse (String.trim out) with
  | Error e -> Alcotest.fail ("healthz does not parse: " ^ e)
  | Ok v ->
    check_bool "healthz schema" true
      (Zkflow_util.Jsonx.member "schema" v
      = Some (Zkflow_util.Jsonx.Str "zkflow-healthz/v1"));
    check_bool "healthy" true
      (Zkflow_util.Jsonx.member "healthy" v = Some (Zkflow_util.Jsonx.Bool true)));
  let code, out = run [ "watch"; "--dir"; dir; "--probe"; "/slo" ] in
  check_int ("watch /slo: " ^ out) 0 code;
  check_bool "slo endpoint schema" true (contains ~needle:"zkflow-slo/v1" out);
  let saved =
    match Zkflow_obs.Event.load_jsonl events with
    | Ok (evs, _) -> evs
    | Error e -> Alcotest.fail ("event log does not load: " ^ e)
  in
  let code, out = run [ "watch"; "--dir"; dir; "--probe"; "/metrics" ] in
  check_int ("watch /metrics: " ^ out) 0 code;
  List.iter
    (fun kind ->
      let n = List.length (List.filter (fun (e : Zkflow_obs.Event.t) -> e.kind = kind) saved) in
      let line = Printf.sprintf "zkflow_events_total{kind=\"%s\"} %d\n" kind n in
      check_bool ("/metrics lists " ^ line) true (contains ~needle:line out))
    (List.sort_uniq compare (List.map (fun (e : Zkflow_obs.Event.t) -> e.kind) saved));
  (* an unknown path is a failed probe, not a silent 404 body *)
  let code, out = run [ "watch"; "--dir"; dir; "--probe"; "/nope" ] in
  check_int "unknown path fails the probe" 1 code;
  check_bool "names the status" true (contains ~needle:"404" out);
  let code, out = run [ "monitor"; "--dir"; dir; "--json" ] in
  check_int ("monitor --json: " ^ out) 0 code;
  let _, again = run [ "monitor"; "--dir"; dir; "--json" ] in
  Alcotest.(check string) "monitor --json is a function of the log" out again;
  let expected = (Zkflow_core.Monitor.build saved).Zkflow_core.Monitor.round_trend in
  check_bool "two epochs, two rounds: a trend" true (expected <> None);
  match Zkflow_util.Jsonx.parse (String.trim out) with
  | Error e -> Alcotest.fail ("monitor json does not parse: " ^ e)
  | Ok v -> (
    match Zkflow_util.Jsonx.member "round_latency_trend" v with
    | Some trend -> check_trend_json expected trend
    | None -> Alcotest.fail "no round_latency_trend in monitor json")

(* The other half of the chaos contract: an injected drop must trip
   the coverage objective, and the strict verdict must say so with a
   nonzero exit. *)
let test_slo_strict_flags_chaos_drop () =
  let dir = fresh_dir () in
  let plan = Filename.concat dir "plan.json" in
  write_text plan
    {|{"seed": 4, "name": "cli-slo-drop",
       "faults": [{"kind": "drop", "router": 1, "epoch": 0}]}|};
  let code, out = run ([ "chaos"; "--dir"; dir; "--plan"; plan ] @ chaos_flags) in
  check_int ("chaos: " ^ out) 0 code;
  check_bool "chaos verdict names the slo" true (contains ~needle:"coverage" out);
  let code, out = run [ "slo"; "--dir"; dir; "--strict" ] in
  check_int "strict slo fails" 1 code;
  check_bool "coverage fired" true (contains ~needle:"coverage" out);
  check_bool "says firing" true (contains ~needle:"firing" out);
  (* without --strict the same verdict is informational *)
  let code, out = run [ "slo"; "--dir"; dir ] in
  check_int "non-strict exit" 0 code;
  check_bool "still reports FIRING" true (contains ~needle:"FIRING" out)

(* ---- bench-diff ---- *)

(* One sweep-shaped artifact in the Bench_row schema: two rows keyed
   by records and jobs, each with a timing, a cycle count and a phase. *)
let bench ?(records = (100, 200)) ?(cycles = 5000) prove_100 =
  let row records prove cycles merkle =
    Printf.sprintf
      {|{"config":{"records":%d,"jobs":1},
         "metrics":{"agg_prove_s":{"value":%g,"unit":"s","better":"lower"},
                    "agg_cycles":{"value":%d,"unit":"count","better":"lower"}},
         "phases":{"merkle":{"count":3,"total_s":%g}}}|}
      records prove cycles merkle
  in
  Printf.sprintf {|{"schema":"zkflow-bench/v1","env":{},"rows":[%s,%s]}|}
    (row (fst records) prove_100 cycles 0.4)
    (row (snd records) 2.0 9000 0.8)

let old_bench = bench 1.0
let regressed_bench = bench 1.6

let test_bench_diff_regression () =
  let dir = fresh_dir () in
  let old_f = Filename.concat dir "old.json" in
  let new_f = Filename.concat dir "new.json" in
  write_text old_f old_bench;
  write_text new_f regressed_bench;
  let code, out = run [ "bench-diff"; old_f; new_f ] in
  check_int "regression exits nonzero" 1 code;
  check_bool "names the field" true (contains ~needle:"agg_prove_s" out);
  check_bool "names the row" true (contains ~needle:"records=100" out);
  (* identical artifacts pass, and so does the regressed one at a
     threshold above the slowdown *)
  let code, _ = run [ "bench-diff"; old_f; old_f ] in
  check_int "identity passes" 0 code;
  let code, _ = run [ "bench-diff"; old_f; new_f; "--threshold"; "0.8" ] in
  check_int "loose threshold passes" 0 code;
  (* a count of work regresses on any move, whatever the threshold *)
  let one_more = Filename.concat dir "one_more_cycle.json" in
  write_text one_more (bench ~cycles:5001 1.0);
  let code, out = run [ "bench-diff"; old_f; one_more; "--threshold"; "0.8" ] in
  check_int "+1 cycle exits nonzero" 1 code;
  check_bool "names the count" true (contains ~needle:"agg_cycles" out);
  let code, _ = run [ "bench-diff"; one_more; old_f ] in
  check_int "-1 cycle passes" 0 code

(* A comparison that matches nothing is an error naming both files,
   never a vacuous pass: rows with no key in common, and matched rows
   with no metric in common. *)
let test_bench_diff_no_match () =
  let dir = fresh_dir () in
  let old_f = Filename.concat dir "old.json" in
  let new_f = Filename.concat dir "disjoint.json" in
  write_text old_f old_bench;
  write_text new_f (bench ~records:(300, 400) 1.0);
  let code, out = run [ "bench-diff"; old_f; new_f ] in
  check_int "disjoint keys exit nonzero" 1 code;
  check_bool "names OLD" true (contains ~needle:old_f out);
  check_bool "names NEW" true (contains ~needle:new_f out);
  check_bool "says why" true (contains ~needle:"share no row key" out);
  (* the same key with no metric in common *)
  let other = Filename.concat dir "other.json" in
  write_text other
    {|{"schema":"zkflow-bench/v1","env":{},"rows":[
       {"config":{"records":100,"jobs":1},
        "metrics":{"x_s":{"value":1,"unit":"s","better":"lower"}},"phases":{}}]}|};
  let only = Filename.concat dir "only.json" in
  write_text only
    {|{"schema":"zkflow-bench/v1","env":{},"rows":[
       {"config":{"records":100,"jobs":1},
        "metrics":{"y_s":{"value":1,"unit":"s","better":"lower"}},"phases":{}}]}|};
  let code, out = run [ "bench-diff"; other; only ] in
  check_int "disjoint metrics exit nonzero" 1 code;
  check_bool "says why" true (contains ~needle:"share no metric" out)

let test_bench_diff_json () =
  let dir = fresh_dir () in
  let old_f = Filename.concat dir "old.json" in
  write_text old_f old_bench;
  let code, out = run [ "bench-diff"; old_f; old_f; "--json" ] in
  check_int "exit" 0 code;
  match Zkflow_util.Jsonx.parse (String.trim out) with
  | Error e -> Alcotest.fail ("bench-diff json does not parse: " ^ e)
  | Ok v ->
    check_bool "ok flag" true
      (Zkflow_util.Jsonx.member "ok" v = Some (Zkflow_util.Jsonx.Bool true))

(* A missing or unreadable artifact, on either side, is one line that
   names the file and exit 1: never cmdliner's usage dump, never a
   backtrace. *)
let one_line_error ~file (code, out) =
  check_int "exit 1" 1 code;
  check_bool "one-line error" true
    (List.length (String.split_on_char '\n' (String.trim out)) = 1);
  check_bool "names the file" true (contains ~needle:file out);
  check_bool "no backtrace" false (contains ~needle:"Raised" out)

let test_bench_diff_missing_input () =
  let dir = fresh_dir () in
  let good = Filename.concat dir "old.json" in
  write_text good old_bench;
  let missing = Filename.concat dir "nope.json" in
  one_line_error ~file:"nope.json" (run [ "bench-diff"; missing; good ]);
  one_line_error ~file:"nope.json" (run [ "bench-diff"; good; missing ])

let test_bench_diff_corrupt_input () =
  let dir = fresh_dir () in
  let good = Filename.concat dir "old.json" in
  write_text good old_bench;
  let truncated = Filename.concat dir "broken.json" in
  write_text truncated "{\"rows\": [truncated";
  List.iter
    (fun args ->
      let code, out = run args in
      one_line_error ~file:"broken.json" (code, out);
      check_bool "says corrupt" true (contains ~needle:"corrupt artifact" out))
    [ [ "bench-diff"; truncated; good ]; [ "bench-diff"; good; truncated ] ];
  (* valid JSON that is not a bench artifact is diagnosed, not diffed *)
  let other = Filename.concat dir "other.json" in
  write_text other {|{"env":{},"sweep":[{"records":10,"agg_prove_s":1.0}]}|};
  List.iter
    (fun args ->
      let code, out = run args in
      one_line_error ~file:"other.json" (code, out);
      check_bool "points at the schema" true (contains ~needle:"schema" out))
    [ [ "bench-diff"; other; good ]; [ "bench-diff"; good; other ] ]

let () =
  Alcotest.run "zkflow_cli"
    [
      ( "stats",
        [
          Alcotest.test_case "missing state is a one-line error" `Quick
            test_stats_missing_state;
          Alcotest.test_case "corrupt journal: one-line error" `Quick
            test_stats_corrupt_checkpoints;
          Alcotest.test_case "reports the receipts' spot checks" `Quick
            test_stats_reports_seal_queries;
        ] );
      ( "state-dir",
        [
          Alcotest.test_case "simulate, prove, serve, verify" `Quick test_prove_then_serve;
          Alcotest.test_case "simulate, serve, prove, verify" `Quick test_serve_then_prove;
          Alcotest.test_case "strict prove names what failed" `Quick
            test_strict_prove_names_failures;
          Alcotest.test_case "prove resumes a torn journal" `Quick
            test_prove_resumes_truncated_checkpoints;
          Alcotest.test_case "failed serve keeps receipts" `Quick
            test_failed_serve_keeps_receipts;
          Alcotest.test_case "serve crash loop gives up" `Quick
            test_serve_crash_loop_gives_up;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "simulate/prove/verify -> monitor" `Quick
            test_events_workflow;
          Alcotest.test_case "monitor without a log" `Quick test_monitor_missing_log;
          Alcotest.test_case "no flight log: every surface fails" `Quick
            test_no_flight_log_every_surface_fails;
          Alcotest.test_case "healed delay: one verdict" `Quick test_healed_delay_one_verdict;
          Alcotest.test_case "verify refuses an old seal" `Quick
            test_verify_refuses_old_seal;
          Alcotest.test_case "one store.window per window per process" `Quick
            test_store_window_once_per_process;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "crash plan: verified, root matches twin, prover-restarts" `Slow
            test_chaos_crash_plan_names_restarts;
          Alcotest.test_case "dropped export: degraded + strict monitor fails" `Slow
            test_chaos_dropped_export_fails_strict_monitor;
          Alcotest.test_case "flood plan: only ingest-admission, no router-lag" `Slow
            test_chaos_flood_names_admission_only;
        ] );
      ( "telemetry-plane",
        [
          Alcotest.test_case "clean run: slo, watch probes, monitor trend" `Quick
            test_telemetry_plane_clean_run;
          Alcotest.test_case "chaos drop trips the strict slo verdict" `Slow
            test_slo_strict_flags_chaos_drop;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "regression detection and thresholds" `Quick
            test_bench_diff_regression;
          Alcotest.test_case "json output" `Quick test_bench_diff_json;
          Alcotest.test_case "no shared row or metric fails" `Quick test_bench_diff_no_match;
          Alcotest.test_case "missing input is a one-line error" `Quick
            test_bench_diff_missing_input;
          Alcotest.test_case "corrupt input is a one-line error" `Quick
            test_bench_diff_corrupt_input;
        ] );
    ]
