module D = Zkflow_hash.Digest32
module Gen = Zkflow_netflow.Gen
module Export = Zkflow_netflow.Export
module Receipt = Zkflow_zkproof.Receipt
module Params = Zkflow_zkproof.Params
module Wrap = Zkflow_zkproof.Wrap
module Pool = Zkflow_parallel.Pool
module Obs = Zkflow_obs.Obs
module Jsonx = Zkflow_util.Jsonx

type backend = Receipt | Wrap

let backend_name = function Receipt -> "receipt" | Wrap -> "wrap"

type scale = { records : int; routers : int; jobs : int }

type grid = {
  backends : backend list;
  queries : int list;
  scales : scale list;
}

(* The CI grid (quick) keeps every cell under a couple of seconds of
   proving so the whole matrix fits in a smoke job; the full grid is
   the one EXPERIMENTS.md quotes. Both satisfy the report's coverage
   floor: 2 backends × >= 3 queries settings × >= 3 scales. *)
let default_grid ~quick =
  {
    backends = [ Receipt; Wrap ];
    queries = (if quick then [ 8; 16; 48 ] else [ 8; 16; 48; 96 ]);
    scales =
      (if quick then
         [
           { records = 24; routers = 2; jobs = 1 };
           { records = 48; routers = 2; jobs = 2 };
           { records = 96; routers = 4; jobs = 2 };
         ]
       else
         [
           { records = 100; routers = 2; jobs = 1 };
           { records = 200; routers = 4; jobs = 2 };
           { records = 400; routers = 4; jobs = 4 };
         ]);
  }

type cell = {
  backend : backend;
  queries : int;
  scale : scale;
  cycles : int;
  exec_s : float;
  prove_s : float;
  verify_s : float;
  proof_bytes : int;
  journal_bytes : int;
  receipt_bytes : int;
  soundness_bits : float;
  phases : (string * (int * float)) list;
  pool : Pool.stats;
}

exception Fail of string

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* One proving run per (queries, scale): the wrap backend is derived
   from the same inner receipt a deployment would wrap, paying its
   wrap cost (which re-verifies the receipt — the recursion-circuit
   analogue) on top of the shared proving time. *)
let run_pair ~agg_program ~vkey ~backends scale q =
  Pool.set_jobs scale.jobs;
  Gc.compact ();
  Zkflow_zkproof.Prove.clear_commit_cache ();
  (* The workload is a function of the scale alone — every queries
     setting at a given scale proves the identical records, so the
     sweep isolates the parameter, not the data. *)
  let rng =
    Zkflow_util.Rng.create
      (Int64.of_int (0x3a70 + (scale.records * 131) + (scale.routers * 7)))
  in
  let per_router = max 1 (scale.records / scale.routers) in
  let batches =
    List.init scale.routers (fun r ->
        let records =
          Gen.records rng Gen.default_profile ~router_id:r ~count:per_router
        in
        (Export.batch_hash records, records))
  in
  let params = Params.make ~queries:q in
  Obs.reset ();
  Obs.enable ();
  let finish () = Obs.disable () in
  match
    Fun.protect ~finally:finish (fun () ->
        let round =
          match Aggregate.prove_round ~params ~prev:Clog.empty batches with
          | Ok r -> r
          | Error e -> raise (Fail ("matrix: prove_round: " ^ e))
        in
        let (), verify_s =
          time (fun () ->
              match
                Zkflow_zkproof.Verify.verify ~program:agg_program
                  round.Aggregate.receipt
              with
              | Ok () -> ()
              | Error e -> raise (Fail ("matrix: verify: " ^ e)))
        in
        let wrapped, wrap_s =
          time (fun () ->
              match
                Wrap.wrap vkey ~program:agg_program round.Aggregate.receipt
              with
              | Ok w -> w
              | Error e -> raise (Fail ("matrix: wrap: " ^ e)))
        in
        let wrap_ok, wrap_verify_s = time (fun () -> Wrap.verify vkey wrapped) in
        if not wrap_ok then raise (Fail "matrix: wrap verification failed");
        (round, verify_s, wrapped, wrap_s, wrap_verify_s))
  with
  | round, verify_s, wrapped, wrap_s, wrap_verify_s ->
    let phases = Obs.span_totals_s () and pool = Pool.stats () in
    let receipt = round.Aggregate.receipt in
    (* The wrap cannot add soundness: it re-verifies the spot-check
       argument and then MACs the claim, so its assurance toward the
       designated verifier is the inner argument's bits (and it gives
       up public verifiability — recorded in the report notes). *)
    let bits = Params.soundness_bits params in
    let cell backend =
      match backend with
      | Receipt ->
        {
          backend;
          queries = q;
          scale;
          cycles = round.Aggregate.cycles;
          exec_s = round.Aggregate.execute_s;
          prove_s = round.Aggregate.prove_s;
          verify_s;
          proof_bytes = Receipt.seal_size receipt;
          journal_bytes = Receipt.journal_size receipt;
          receipt_bytes = Receipt.size receipt;
          soundness_bits = bits;
          phases;
          pool;
        }
      | Wrap ->
        {
          backend;
          queries = q;
          scale;
          cycles = round.Aggregate.cycles;
          exec_s = round.Aggregate.execute_s;
          prove_s = round.Aggregate.prove_s +. wrap_s;
          verify_s = wrap_verify_s;
          proof_bytes = Bytes.length wrapped.Wrap.seal256;
          journal_bytes = Receipt.journal_size receipt;
          receipt_bytes = Bytes.length (Wrap.encode wrapped);
          soundness_bits = bits;
          phases;
          pool;
        }
    in
    List.map cell backends

let run ?(log = fun (_ : string) -> ()) grid =
  let saved_jobs = Pool.jobs () in
  let agg_program = Lazy.force Guests.aggregation_program in
  let vkey = Wrap.setup ~seed:(Bytes.of_string "matrix-setup") in
  match
    Fun.protect
      ~finally:(fun () -> Pool.set_jobs saved_jobs)
      (fun () ->
        List.concat_map
          (fun scale ->
            List.concat_map
              (fun q ->
                let cells =
                  run_pair ~agg_program ~vkey ~backends:grid.backends scale q
                in
                List.iter
                  (fun c ->
                    log
                      (Printf.sprintf
                         "%-7s queries=%-3d records=%-4d routers=%d jobs=%d  \
                          prove %6.2fs  verify %7.2fms  proof %7dB  %5.2f bits"
                         (backend_name c.backend) c.queries c.scale.records
                         c.scale.routers c.scale.jobs c.prove_s
                         (1000. *. c.verify_s) c.proof_bytes c.soundness_bits))
                  cells;
                cells)
              grid.queries)
          grid.scales)
  with
  | cells -> Ok cells
  | exception Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* Artifact serialization                                              *)
(* ------------------------------------------------------------------ *)

let phases_json phases =
  Jsonx.Obj
    (List.map
       (fun (name, (count, total_s)) ->
         ( name,
           Jsonx.Obj
             [
               ("count", Jsonx.Num (float_of_int count));
               ("total_s", Jsonx.Num total_s);
             ] ))
       phases)

let pool_json (s : Pool.stats) =
  let num v = Jsonx.Num (float_of_int v) in
  Jsonx.Obj
    [
      ("jobs", num s.Pool.jobs);
      ("regions", num s.Pool.regions);
      ("tasks", num s.Pool.tasks);
      ("busy_ns", num s.Pool.busy_ns);
      ("region_wall_ns", num s.Pool.region_wall_ns);
      ("submit_wait_ns", num s.Pool.submit_wait_ns);
      ("seq_regions", num s.Pool.seq_regions);
      ("nested_seq", num s.Pool.nested_seq);
      ("spawned_domains", num s.Pool.spawned_domains);
      ("utilization", Jsonx.Num (Pool.utilization s));
    ]

(* Where this artifact came from: cross-commit, cross-machine and
   cross-kernel comparisons are legitimate but must be legible, so
   every artifact carries enough provenance for bench-diff (and a
   reader of the report header) to flag them. The SHA-256 kernel is
   part of it because the CPU picks it, and it moves every hashing
   timing. Failures degrade to "unknown" — a tarball export without
   .git still benches. *)
let env_provenance () =
  let read_cmd cmd =
    try
      let ic = Unix.open_process_in cmd in
      let line = try Some (input_line ic) with End_of_file -> None in
      let consume () = try while true do ignore (input_line ic) done with End_of_file -> () in
      consume ();
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some l -> Some (String.trim l)
      | _ -> None
    with _ -> None
  in
  let commit =
    Option.value ~default:"unknown"
      (read_cmd "git rev-parse --short HEAD 2>/dev/null")
  in
  let dirty =
    (* `git status --porcelain` prints nothing on a clean tree, so a
       first line means dirty; a failed git means unknown -> false. *)
    read_cmd "git status --porcelain 2>/dev/null" <> None
  in
  let hostname = try Unix.gethostname () with _ -> "unknown" in
  [
    ("git_commit", Jsonx.Str commit);
    ("git_dirty", Jsonx.Bool dirty);
    ("hostname", Jsonx.Str hostname);
    ("sha256_kernel", Jsonx.Str Zkflow_hash.Sha256.kernel);
  ]

let schema = "zkflow-bench-matrix/v1"

let cell_json c =
  Jsonx.Obj
    [
      ("backend", Jsonx.Str (backend_name c.backend));
      ("queries", Jsonx.Num (float_of_int c.queries));
      ("records", Jsonx.Num (float_of_int c.scale.records));
      ("routers", Jsonx.Num (float_of_int c.scale.routers));
      ("jobs", Jsonx.Num (float_of_int c.scale.jobs));
      ("agg_cycles", Jsonx.Num (float_of_int c.cycles));
      ("exec_s", Jsonx.Num c.exec_s);
      ("prove_s", Jsonx.Num c.prove_s);
      ("verify_s", Jsonx.Num c.verify_s);
      ("proof_bytes", Jsonx.Num (float_of_int c.proof_bytes));
      ("journal_bytes", Jsonx.Num (float_of_int c.journal_bytes));
      ("receipt_bytes", Jsonx.Num (float_of_int c.receipt_bytes));
      ("soundness_bits", Jsonx.Num c.soundness_bits);
      ("phases", phases_json c.phases);
      ("pool", pool_json c.pool);
    ]

let to_json ~env cells =
  Jsonx.Obj
    [
      ("schema", Jsonx.Str schema);
      ("env", env);
      ("rows", Jsonx.Arr (List.map cell_json cells));
    ]

(* ------------------------------------------------------------------ *)
(* Report: parse an artifact back                                      *)
(* ------------------------------------------------------------------ *)

type row = {
  key : string;
  r_backend : string;
  r_queries : int;
  r_records : int;
  r_routers : int;
  r_jobs : int;
  r_cycles : float;
  r_exec_s : float;
  r_prove_s : float;
  r_verify_s : float;
  r_proof_bytes : float;
  r_journal_bytes : float;
  r_receipt_bytes : float;
  r_soundness_bits : float;
  r_phases : (string * float) list;
}

let ( let* ) = Result.bind

let parse_row i row =
  let num name =
    match Jsonx.member name row with
    | Some (Jsonx.Num f) -> Ok f
    | _ -> Error (Printf.sprintf "row %d: missing numeric field %S" i name)
  in
  let str name =
    match Jsonx.member name row with
    | Some (Jsonx.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "row %d: missing string field %S" i name)
  in
  let* r_backend = str "backend" in
  let* queries = num "queries" in
  let* records = num "records" in
  let* routers = num "routers" in
  let* jobs = num "jobs" in
  let* r_cycles = num "agg_cycles" in
  let* r_exec_s = num "exec_s" in
  let* r_prove_s = num "prove_s" in
  let* r_verify_s = num "verify_s" in
  let* r_proof_bytes = num "proof_bytes" in
  let* r_journal_bytes = num "journal_bytes" in
  let* r_receipt_bytes = num "receipt_bytes" in
  let* r_soundness_bits = num "soundness_bits" in
  let r_phases =
    match Jsonx.member "phases" row with
    | Some (Jsonx.Obj members) ->
      List.filter_map
        (fun (name, v) ->
          match Jsonx.member "total_s" v with
          | Some (Jsonx.Num s) -> Some (name, s)
          | _ -> None)
        members
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    | _ -> []
  in
  let key = Option.value ~default:(Printf.sprintf "row %d" i) (Bench_diff.row_key row) in
  Ok
    {
      key;
      r_backend;
      r_queries = int_of_float queries;
      r_records = int_of_float records;
      r_routers = int_of_float routers;
      r_jobs = int_of_float jobs;
      r_cycles;
      r_exec_s;
      r_prove_s;
      r_verify_s;
      r_proof_bytes;
      r_journal_bytes;
      r_receipt_bytes;
      r_soundness_bits;
      r_phases;
    }

let rows_of_artifact doc =
  match Jsonx.member "rows" doc with
  | Some (Jsonx.Arr rows) ->
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | r :: rest ->
        let* row = parse_row i r in
        go (i + 1) (row :: acc) rest
    in
    let* parsed = go 0 [] rows in
    if parsed = [] then Error "artifact has an empty \"rows\" array"
    else Ok parsed
  | _ -> Error "no \"rows\" array — not a BENCH_matrix.json artifact"

(* ------------------------------------------------------------------ *)
(* Pareto frontier                                                     *)
(* ------------------------------------------------------------------ *)

let dominates a b =
  a.r_prove_s <= b.r_prove_s
  && a.r_proof_bytes <= b.r_proof_bytes
  && a.r_soundness_bits >= b.r_soundness_bits
  && (a.r_prove_s < b.r_prove_s
      || a.r_proof_bytes < b.r_proof_bytes
      || a.r_soundness_bits > b.r_soundness_bits)

let frontier rows =
  List.map
    (fun r -> (r, not (List.exists (fun r' -> dominates r' r) rows)))
    rows

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let env_summary doc =
  match Jsonx.member "env" doc with
  | Some env ->
    let field name =
      match Jsonx.member name env with
      | Some (Jsonx.Str s) -> Some (Printf.sprintf "%s=%s" name s)
      | Some (Jsonx.Bool b) -> Some (Printf.sprintf "%s=%b" name b)
      | Some (Jsonx.Num f) -> Some (Printf.sprintf "%s=%g" name f)
      | _ -> None
    in
    List.filter_map field
      [
        "git_commit"; "git_dirty"; "hostname"; "sha256_kernel"; "zkflow_jobs"; "ncores"; "quick";
      ]
    |> String.concat " "
  | None -> "(no env block)"

let uniq l = List.sort_uniq compare l

let axis_counts rows =
  ( List.length (uniq (List.map (fun r -> r.r_backend) rows)),
    List.length (uniq (List.map (fun r -> r.r_queries) rows)),
    List.length
      (uniq (List.map (fun r -> (r.r_records, r.r_routers, r.r_jobs)) rows)) )

let report_markdown doc =
  let* rows = rows_of_artifact doc in
  let marked = frontier rows in
  let n_backends, n_queries, n_scales = axis_counts rows in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# zkflow proof-backend benchmark matrix";
  line "";
  line "One aggregation round per cell across %d backend(s) × %d queries \
        setting(s) × %d scale(s) — %d cells. Generated by `zkflow report` \
        from `BENCH_matrix.json` (`dune exec bench/main.exe -- matrix`)."
    n_backends n_queries n_scales (List.length rows);
  line "";
  line "- environment: `%s`" (env_summary doc);
  line "- soundness bits use the 5%%-corruption convention of DESIGN.md §5 \
        (`Params.soundness_bits`); the `wrap` backend re-verifies the inner \
        receipt, so it inherits the inner argument's bits and trades public \
        verifiability for its constant 256-byte seal.";
  line "";
  line "## Matrix";
  line "";
  line "| backend | queries | records | routers | jobs | cycles | prove (s) \
        | verify (ms) | proof (B) | journal (B) | receipt (B) | soundness \
        (bits) | frontier |";
  line "|---|---|---|---|---|---|---|---|---|---|---|---|---|";
  List.iter
    (fun (r, on) ->
      line "| %s | %d | %d | %d | %d | %.0f | %.3f | %.3f | %.0f | %.0f | %.0f | %.2f | %s |"
        r.r_backend r.r_queries r.r_records r.r_routers r.r_jobs r.r_cycles
        r.r_prove_s (1000. *. r.r_verify_s) r.r_proof_bytes r.r_journal_bytes
        r.r_receipt_bytes r.r_soundness_bits
        (if on then "✓" else ""))
    marked;
  line "";
  line "## Pareto frontier (prove time × proof bytes × soundness bits)";
  line "";
  let front = List.filter_map (fun (r, on) -> if on then Some r else None) marked in
  let dominated = List.length rows - List.length front in
  line "A cell is on the frontier when no other cell proves at least as \
        fast, with at-most-as-many proof bytes, at at-least-as-many \
        soundness bits — and strictly better on one axis. %d of %d cells \
        are dominated."
    dominated (List.length rows);
  line "";
  line "| backend | queries | records | routers | jobs | prove (s) | proof (B) | soundness (bits) |";
  line "|---|---|---|---|---|---|---|---|";
  List.iter
    (fun r ->
      line "| %s | %d | %d | %d | %d | %.3f | %.0f | %.2f |" r.r_backend
        r.r_queries r.r_records r.r_routers r.r_jobs r.r_prove_s
        r.r_proof_bytes r.r_soundness_bits)
    (List.sort (fun a b -> Float.compare a.r_prove_s b.r_prove_s) front);
  line "";
  line "## Where the proving seconds go";
  line "";
  line "Top spans per cell (`Zkflow_obs` snapshot embedded in the artifact):";
  line "";
  List.iter
    (fun r ->
      let top =
        List.filteri (fun i _ -> i < 4) r.r_phases
        |> List.map (fun (name, s) -> Printf.sprintf "%s %.3fs" name s)
      in
      if top <> [] then line "- `%s`: %s" r.key (String.concat ", " top))
    rows;
  line "";
  line "## Reading the frontier";
  line "";
  line "- More `queries` buys soundness bits linearly in seal bytes and \
        verify time — the spot-check cost axis.";
  line "- `wrap` pays the inner proving cost plus a re-verify, then ships \
        256 bytes: it dominates on proof size, never on prove time.";
  line "- Scales grow prove time with records; verification must stay \
        flat. A future perf PR moves cells left (faster) without dropping \
        bits — `zkflow bench-diff` gates every cell by its full \
        configuration key.";
  Ok (Buffer.contents buf)

let report_json doc =
  let* rows = rows_of_artifact doc in
  let marked = frontier rows in
  let n_backends, n_queries, n_scales = axis_counts rows in
  let row_json (r, on) =
    Jsonx.Obj
      [
        ("key", Jsonx.Str r.key);
        ("backend", Jsonx.Str r.r_backend);
        ("queries", Jsonx.Num (float_of_int r.r_queries));
        ("records", Jsonx.Num (float_of_int r.r_records));
        ("routers", Jsonx.Num (float_of_int r.r_routers));
        ("jobs", Jsonx.Num (float_of_int r.r_jobs));
        ("prove_s", Jsonx.Num r.r_prove_s);
        ("verify_s", Jsonx.Num r.r_verify_s);
        ("proof_bytes", Jsonx.Num r.r_proof_bytes);
        ("journal_bytes", Jsonx.Num r.r_journal_bytes);
        ("receipt_bytes", Jsonx.Num r.r_receipt_bytes);
        ("soundness_bits", Jsonx.Num r.r_soundness_bits);
        ("frontier", Jsonx.Bool on);
      ]
  in
  let front =
    List.filter_map (fun (r, on) -> if on then Some r else None) marked
    |> List.sort (fun a b -> Float.compare a.r_prove_s b.r_prove_s)
  in
  Ok
    (Jsonx.Obj
       [
         ("schema", Jsonx.Str "zkflow-matrix-report/v1");
         ( "env",
           match Jsonx.member "env" doc with Some e -> e | None -> Jsonx.Null );
         ("backends", Jsonx.Num (float_of_int n_backends));
         ("queries_settings", Jsonx.Num (float_of_int n_queries));
         ("scales", Jsonx.Num (float_of_int n_scales));
         ("cells", Jsonx.Num (float_of_int (List.length rows)));
         ("rows", Jsonx.Arr (List.map row_json marked));
         ( "frontier",
           Jsonx.Arr (List.map (fun r -> Jsonx.Str r.key) front) );
       ])
