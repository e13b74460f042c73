open Zkflow_store
module Record = Zkflow_netflow.Record
module Gen = Zkflow_netflow.Gen

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rng () = Zkflow_util.Rng.create 99L

let sample_records ?(router_id = 0) n =
  Gen.records (rng ()) Gen.default_profile ~router_id ~count:n

(* ---- Codec ---- *)

let test_codec_roundtrip () =
  let r =
    Record.make
      ~key:(sample_records 1).(0).Record.key
      ~first_ts:123 ~last_ts:456 ~router_id:7
      { Record.packets = 1; bytes = 2; hop_count = 3; losses = 4 }
  in
  match Codec.record_of_row (Codec.record_to_row r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    check_int "first_ts" 123 r'.Record.first_ts;
    check_int "last_ts" 456 r'.Record.last_ts;
    check_int "router" 7 r'.Record.router_id;
    check_int "losses" 4 r'.Record.metrics.Record.losses

let test_codec_rejects_garbage () =
  check_bool "garbage" true (Result.is_error (Codec.record_of_row (Bytes.of_string "xx")))

(* ---- Table ---- *)

let test_table_append_get () =
  let t = Table.create ~name:"t" in
  let i0 = Table.append t (Bytes.of_string "a") in
  let i1 = Table.append t (Bytes.of_string "b") in
  check_int "seq 0" 0 i0;
  check_int "seq 1" 1 i1;
  Alcotest.(check (option bytes)) "get" (Some (Bytes.of_string "b")) (Table.get t 1);
  Alcotest.(check (option bytes)) "oob" None (Table.get t 2);
  check_int "length" 2 (Table.length t)

let test_table_growth () =
  let t = Table.create ~name:"t" in
  for i = 0 to 999 do
    ignore (Table.append t (Bytes.of_string (string_of_int i)))
  done;
  check_int "length" 1000 (Table.length t);
  Alcotest.(check (option bytes)) "late row" (Some (Bytes.of_string "999")) (Table.get t 999)

let test_table_rows_isolated () =
  let t = Table.create ~name:"t" in
  let row = Bytes.of_string "orig" in
  ignore (Table.append t row);
  Bytes.set row 0 'X';
  Alcotest.(check (option bytes)) "copied on append" (Some (Bytes.of_string "orig"))
    (Table.get t 0)

let test_table_overwrite_hook () =
  let t = Table.create ~name:"t" in
  ignore (Table.append t (Bytes.of_string "good"));
  Table.unsafe_overwrite t 0 (Bytes.of_string "evil");
  Alcotest.(check (option bytes)) "overwritten" (Some (Bytes.of_string "evil"))
    (Table.get t 0);
  Alcotest.check_raises "oob" (Invalid_argument "Table.unsafe_overwrite: out of range")
    (fun () -> Table.unsafe_overwrite t 5 Bytes.empty)

(* ---- Epoch ---- *)

let test_epoch_boundaries () =
  let p = Epoch.default in
  check_int "t=0" 0 (Epoch.of_ts p 0);
  check_int "t=4999" 0 (Epoch.of_ts p 4999);
  check_int "t=5000" 1 (Epoch.of_ts p 5000);
  check_int "start" 5000 (Epoch.start_ms p 1);
  check_int "end" 10000 (Epoch.end_ms p 1)

let test_epoch_validation () =
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Epoch.make: interval must be positive") (fun () ->
      ignore (Epoch.make ~interval_ms:0))

(* ---- Wal ---- *)

let with_tmp f =
  let path = Filename.temp_file "zkflow_wal" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_wal_roundtrip () =
  with_tmp (fun path ->
      Sys.remove path;
      let w = Wal.open_log path in
      Wal.append w (Bytes.of_string "one");
      Wal.append w (Bytes.of_string "two");
      Wal.close w;
      match Wal.replay path with
      | Ok [ a; b ] ->
        Alcotest.(check bytes) "row 1" (Bytes.of_string "one") a;
        Alcotest.(check bytes) "row 2" (Bytes.of_string "two") b
      | Ok l -> Alcotest.fail (Printf.sprintf "expected 2 rows, got %d" (List.length l))
      | Error e -> Alcotest.fail e)

let test_wal_missing_file () =
  match Wal.replay "/tmp/zkflow-definitely-not-here.log" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "expected empty replay"

let test_wal_torn_tail_dropped () =
  with_tmp (fun path ->
      Sys.remove path;
      let w = Wal.open_log path in
      Wal.append w (Bytes.of_string "intact");
      Wal.close w;
      (* Simulate a crash mid-append: a header promising more bytes than exist. *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\x00\x00\x00\xFFpartial";
      close_out oc;
      match Wal.replay path with
      | Ok [ a ] -> Alcotest.(check bytes) "intact survives" (Bytes.of_string "intact") a
      | Ok l -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length l))
      | Error e -> Alcotest.fail e)

(* A log's row boundaries: byte offsets at which a replay prefix is
   whole. Truncating anywhere else must yield exactly the rows that
   fit entirely before the cut. *)
let intact_prefix rows cut =
  let rec go acc off = function
    | [] -> List.rev acc
    | r :: rest ->
      let off' = off + 4 + Bytes.length r in
      if off' <= cut then go (r :: acc) off' rest else List.rev acc
  in
  go [] 0 rows

let framed_prefix rows cut =
  let buf = Buffer.create 256 in
  List.iter
    (fun r ->
      let n = Bytes.length r in
      Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
      Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
      Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
      Buffer.add_char buf (Char.chr (n land 0xff));
      Buffer.add_bytes buf r)
    rows;
  String.sub (Buffer.contents buf) 0 cut

let replay_equals path expect =
  match Wal.replay path with
  | Error e -> Alcotest.fail e
  | Ok got ->
    List.length got = List.length expect
    && List.for_all2 Bytes.equal got expect

(* Satellite (c): crash anywhere — truncate a valid log at EVERY byte
   offset — and replay returns exactly the intact prefix, never an
   error, never a phantom row. *)
let test_wal_truncate_every_offset () =
  with_tmp (fun path ->
      let rows =
        [ Bytes.empty; Bytes.of_string "a"; Bytes.of_string "row-two";
          Bytes.make 300 'x'; Bytes.of_string "tail" ]
      in
      let total = List.fold_left (fun a r -> a + 4 + Bytes.length r) 0 rows in
      for cut = 0 to total do
        let oc = open_out_bin path in
        output_string oc (framed_prefix rows cut);
        close_out oc;
        Alcotest.(check bool)
          (Printf.sprintf "cut at %d" cut)
          true
          (replay_equals path (intact_prefix rows cut))
      done)

let qcheck_wal_torn_tail =
  QCheck.Test.make ~count:100 ~name:"torn tail keeps exactly the intact prefix"
    QCheck.(
      pair
        (small_list (string_of_size Gen.(int_bound 40)))
        (float_bound_exclusive 1.0))
    (fun (strs, frac) ->
      let rows = List.map Bytes.of_string strs in
      let total = List.fold_left (fun a r -> a + 4 + Bytes.length r) 0 rows in
      let cut = int_of_float (frac *. float_of_int (total + 1)) in
      let path = Filename.temp_file "zkflow_wal_qc" ".log" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          let oc = open_out_bin path in
          output_string oc (framed_prefix rows cut);
          close_out oc;
          replay_equals path (intact_prefix rows cut)))

let test_wal_abandon_loses_unsynced_tail () =
  with_tmp (fun path ->
      Sys.remove path;
      let w = Wal.open_log path in
      Wal.append w (Bytes.of_string "durable");
      Wal.sync w;
      Wal.append w (Bytes.of_string "in flight");
      (* the process dies: buffered rows never reach the disk (a
         second abandon is a no-op) *)
      Wal.abandon w;
      Wal.abandon w;
      (match Wal.replay path with
      | Ok [ a ] -> Alcotest.(check bytes) "synced row survives" (Bytes.of_string "durable") a
      | Ok l -> Alcotest.fail (Printf.sprintf "expected 1 row, got %d" (List.length l))
      | Error e -> Alcotest.fail e);
      (* nor later: a resume reopens the journal (likely on the same
         descriptor number), and the at-exit flush of every channel
         must not append the dead row after the new one *)
      let w' = Wal.open_log path in
      Wal.append w' (Bytes.of_string "resumed");
      Wal.sync w';
      flush_all ();
      Wal.close w';
      match Wal.replay path with
      | Ok rows ->
        Alcotest.(check (list string)) "only synced rows" [ "durable"; "resumed" ]
          (List.map Bytes.to_string rows)
      | Error e -> Alcotest.fail e)

let test_wal_rewrite_compacts () =
  with_tmp (fun path ->
      Sys.remove path;
      let w = Wal.open_log path in
      List.iter (Wal.append w) [ Bytes.of_string "keep"; Bytes.of_string "drop" ];
      Wal.close w;
      Wal.rewrite path [ Bytes.of_string "keep" ];
      (match Wal.replay path with
       | Ok [ a ] -> Alcotest.(check bytes) "compacted" (Bytes.of_string "keep") a
       | _ -> Alcotest.fail "expected exactly the kept row");
      check_bool "no temp residue" false (Sys.file_exists (path ^ ".tmp")))

let test_write_file_atomic () =
  with_tmp (fun path ->
      Wal.write_file_atomic path (Bytes.of_string "first");
      Wal.write_file_atomic path (Bytes.of_string "second");
      let ic = open_in_bin path in
      let got = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "last write wins" "second" got;
      check_bool "no temp residue" false (Sys.file_exists (path ^ ".tmp")))

(* ---- Db ---- *)

let test_db_window_partitioning () =
  let db = Db.create ~epoch:Epoch.default () in
  let records = sample_records ~router_id:1 3 in
  (* place records in different epochs via last_ts *)
  let stamped =
    Array.mapi
      (fun i r ->
        Record.make ~key:r.Record.key ~first_ts:0 ~last_ts:(i * 5000) ~router_id:1
          r.Record.metrics)
      records
  in
  Array.iter (Db.insert db) stamped;
  check_int "epoch 0" 1 (Array.length (Db.window db ~router_id:1 ~epoch:0));
  check_int "epoch 1" 1 (Array.length (Db.window db ~router_id:1 ~epoch:1));
  check_int "epoch 2" 1 (Array.length (Db.window db ~router_id:1 ~epoch:2));
  check_int "missing window" 0 (Array.length (Db.window db ~router_id:9 ~epoch:0));
  Alcotest.(check (list int)) "routers" [ 1 ] (Db.routers db);
  Alcotest.(check (list int)) "epochs" [ 0; 1; 2 ] (Db.epochs db);
  check_int "total" 3 (Db.record_count db)

let test_db_insertion_order_preserved () =
  let db = Db.create ~epoch:Epoch.default () in
  let records = sample_records ~router_id:0 10 in
  Array.iter (Db.insert db) records;
  let w = Db.window db ~router_id:0 ~epoch:0 in
  check_int "count" 10 (Array.length w);
  Array.iteri
    (fun i r ->
      check_bool "order" true
        (Zkflow_netflow.Flowkey.equal r.Record.key records.(i).Record.key))
    w

let test_db_tamper () =
  let db = Db.create ~epoch:Epoch.default () in
  Array.iter (Db.insert db) (sample_records ~router_id:0 5);
  let before = (Db.window db ~router_id:0 ~epoch:0).(2).Record.metrics.Record.losses in
  (match
     Db.tamper db ~router_id:0 ~epoch:0 ~pos:2 (fun r ->
         Record.make ~key:r.Record.key ~router_id:0
           { r.Record.metrics with Record.losses = before + 100 })
   with
   | Ok () -> ()
   | Error e -> Alcotest.fail e);
  check_int "mutated" (before + 100)
    (Db.window db ~router_id:0 ~epoch:0).(2).Record.metrics.Record.losses;
  check_bool "bad window" true
    (Result.is_error (Db.tamper db ~router_id:5 ~epoch:0 ~pos:0 Fun.id));
  check_bool "bad pos" true
    (Result.is_error (Db.tamper db ~router_id:0 ~epoch:0 ~pos:99 Fun.id))

let test_db_wal_recovery () =
  with_tmp (fun path ->
      Sys.remove path;
      let db = Db.create ~wal_path:path ~epoch:Epoch.default () in
      let records = sample_records ~router_id:2 20 in
      Array.iter (Db.insert db) records;
      Db.sync db;
      match Db.recover ~wal_path:path ~epoch:Epoch.default with
      | Error e -> Alcotest.fail e
      | Ok db' ->
        check_int "recovered count" 20 (Db.record_count db');
        let w = Db.window db' ~router_id:2 ~epoch:0 in
        check_bool "first key survives" true
          (Zkflow_netflow.Flowkey.equal w.(0).Record.key records.(0).Record.key))

let () =
  Alcotest.run "zkflow_store"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        ] );
      ( "table",
        [
          Alcotest.test_case "append/get" `Quick test_table_append_get;
          Alcotest.test_case "growth" `Quick test_table_growth;
          Alcotest.test_case "rows isolated" `Quick test_table_rows_isolated;
          Alcotest.test_case "overwrite hook" `Quick test_table_overwrite_hook;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "boundaries" `Quick test_epoch_boundaries;
          Alcotest.test_case "validation" `Quick test_epoch_validation;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "missing file" `Quick test_wal_missing_file;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail_dropped;
          Alcotest.test_case "truncate at every offset" `Quick
            test_wal_truncate_every_offset;
          QCheck_alcotest.to_alcotest qcheck_wal_torn_tail;
          Alcotest.test_case "abandon loses unsynced tail" `Quick
            test_wal_abandon_loses_unsynced_tail;
          Alcotest.test_case "rewrite compacts" `Quick test_wal_rewrite_compacts;
          Alcotest.test_case "write_file_atomic" `Quick test_write_file_atomic;
        ] );
      ( "db",
        [
          Alcotest.test_case "window partitioning" `Quick test_db_window_partitioning;
          Alcotest.test_case "insertion order" `Quick test_db_insertion_order_preserved;
          Alcotest.test_case "tamper hook" `Quick test_db_tamper;
          Alcotest.test_case "wal recovery" `Quick test_db_wal_recovery;
        ] );
    ]
