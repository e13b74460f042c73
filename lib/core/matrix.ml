module D = Zkflow_hash.Digest32
module Gen = Zkflow_netflow.Gen
module Export = Zkflow_netflow.Export
module Receipt = Zkflow_zkproof.Receipt
module Params = Zkflow_zkproof.Params
module Wrap = Zkflow_zkproof.Wrap
module Pool = Zkflow_parallel.Pool
module Obs = Zkflow_obs.Obs
module Jsonx = Zkflow_util.Jsonx
module R = Bench_row

type backend = Receipt | Wrap

let backend_name = function Receipt -> "receipt" | Wrap -> "wrap"

type scale = { records : int; routers : int; jobs : int }

type grid = {
  backends : backend list;
  queries : int list;
  scales : scale list;
}

(* The quick grid keeps every cell under a couple of seconds of
   proving; the full grid is the committed baseline EXPERIMENTS.md
   quotes, and its largest scale runs 2 jobs so that a 2-core host
   runs no cell oversubscribed. Both satisfy the report's coverage
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
           { records = 400; routers = 4; jobs = 2 };
         ]);
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
let run_pair ~log ~agg_program ~vkey ~backends scale q =
  Pool.set_jobs scale.jobs;
  Gc.compact ();
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
    let phases = Obs.span_totals_s () in
    let receipt = round.Aggregate.receipt in
    (* The wrap cannot add soundness: it re-verifies the spot-check
       argument and then MACs the claim, so its assurance toward the
       designated verifier is the inner argument's bits (and it gives
       up public verifiability — recorded in the report notes). *)
    let bits = Params.soundness_bits params in
    let row backend ~prove_s ~verify_s ~proof_bytes ~receipt_bytes =
      log
        (Printf.sprintf
           "%-7s queries=%-3d records=%-4d routers=%d jobs=%d  prove %6.2fs  verify %7.2fms  proof %7dB  %5.2f bits"
           (backend_name backend) q scale.records scale.routers scale.jobs prove_s
           (1000. *. verify_s) proof_bytes bits);
      {
        R.config =
          [
            ("backend", R.Str (backend_name backend));
            ("queries", R.Int q);
            ("records", R.Int scale.records);
            ("routers", R.Int scale.routers);
            ("jobs", R.Int scale.jobs);
          ];
        metrics =
          [
            ("agg_cycles", R.count round.Aggregate.cycles);
            ("exec_s", R.seconds round.Aggregate.execute_s);
            ("prove_s", R.seconds prove_s);
            ("verify_s", R.seconds verify_s);
            ("proof_bytes", R.bytes proof_bytes);
            ("journal_bytes", R.bytes (Receipt.journal_size receipt));
            ("receipt_bytes", R.bytes receipt_bytes);
            ("soundness_bits", R.bits bits);
          ];
        phases;
      }
    in
    List.map
      (function
        | Receipt ->
          row Receipt ~prove_s:round.Aggregate.prove_s ~verify_s
            ~proof_bytes:(Receipt.seal_size receipt) ~receipt_bytes:(Receipt.size receipt)
        | Wrap ->
          row Wrap ~prove_s:(round.Aggregate.prove_s +. wrap_s) ~verify_s:wrap_verify_s
            ~proof_bytes:(Bytes.length wrapped.Wrap.seal256)
            ~receipt_bytes:(Bytes.length (Wrap.encode wrapped)))
      backends

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
              (run_pair ~log ~agg_program ~vkey ~backends:grid.backends scale)
              grid.queries)
          grid.scales)
  with
  | rows -> Ok rows
  | exception Fail e -> Error e

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Report: the shared rows of a matrix artifact                        *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* What the report reads from every row; a row without one of them is
   refused by name rather than rendered with a hole. *)
let axes = [ "backend"; "queries"; "records"; "routers"; "jobs" ]

let measured =
  [
    "agg_cycles"; "exec_s"; "prove_s"; "verify_s"; "proof_bytes"; "journal_bytes";
    "receipt_bytes"; "soundness_bits";
  ]

let matrix_rows (a : R.artifact) =
  let missing i (r : R.row) =
    match
      ( List.find_opt (fun k -> not (List.mem_assoc k r.config)) axes,
        List.find_opt (fun k -> not (List.mem_assoc k r.metrics)) measured )
    with
    | Some k, _ -> Some (Printf.sprintf "row %d: missing config axis %S" i k)
    | None, Some k -> Some (Printf.sprintf "row %d: missing metric %S" i k)
    | None, None -> None
  in
  if a.rows = [] then Error "artifact has an empty \"rows\" array"
  else
    match List.find_map Fun.id (List.mapi missing a.rows) with
    | Some e -> Error e
    | None -> Ok a.rows

let v r name = Option.get (R.metric r name)
let ax (r : R.row) name = R.axis_string (List.assoc name r.config)

(* ------------------------------------------------------------------ *)
(* Pareto frontier                                                     *)
(* ------------------------------------------------------------------ *)

let dominates a b =
  let prove r = v r "prove_s" and bytes r = v r "proof_bytes" and bits r = v r "soundness_bits" in
  prove a <= prove b
  && bytes a <= bytes b
  && bits a >= bits b
  && (prove a < prove b || bytes a < bytes b || bits a > bits b)

let frontier rows =
  List.map
    (fun r -> (r, not (List.exists (fun r' -> dominates r' r) rows)))
    rows

let frontier_by_prove_time rows =
  List.filter_map (fun (r, on) -> if on then Some r else None) (frontier rows)
  |> List.sort (fun a b -> Float.compare (v a "prove_s") (v b "prove_s"))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let env_summary (a : R.artifact) =
  let field name =
    match List.assoc_opt name a.env with
    | Some (Jsonx.Str s) -> Some (Printf.sprintf "%s=%s" name s)
    | Some (Jsonx.Bool b) -> Some (Printf.sprintf "%s=%b" name b)
    | Some (Jsonx.Num f) -> Some (Printf.sprintf "%s=%g" name f)
    | _ -> None
  in
  List.filter_map field
    [ "git_commit"; "git_dirty"; "hostname"; "sha256_kernel"; "zkflow_jobs"; "ncores"; "quick" ]
  |> String.concat " "

let count_distinct f rows = List.length (List.sort_uniq compare (List.map f rows))

let report_markdown a =
  let* rows = matrix_rows a in
  let marked = frontier rows in
  let n_backends = count_distinct (fun r -> ax r "backend") rows in
  let n_queries = count_distinct (fun r -> ax r "queries") rows in
  let n_scales = count_distinct (fun r -> (ax r "records", ax r "routers", ax r "jobs")) rows in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "# zkflow proof-backend benchmark matrix";
  line "";
  line "One aggregation round per cell across %d backend(s) × %d queries \
        setting(s) × %d scale(s) — %d cells. Generated by `zkflow report` \
        from `BENCH_matrix.json` (`dune exec bench/main.exe -- matrix`)."
    n_backends n_queries n_scales (List.length rows);
  line "";
  line "- environment: `%s`" (env_summary a);
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
      line "| %s | %s | %s | %s | %s | %.0f | %.3f | %.3f | %.0f | %.0f | %.0f | %.2f | %s |"
        (ax r "backend") (ax r "queries") (ax r "records") (ax r "routers") (ax r "jobs")
        (v r "agg_cycles") (v r "prove_s") (1000. *. v r "verify_s") (v r "proof_bytes")
        (v r "journal_bytes") (v r "receipt_bytes") (v r "soundness_bits")
        (if on then "✓" else ""))
    marked;
  line "";
  line "## Pareto frontier (prove time × proof bytes × soundness bits)";
  line "";
  let front = frontier_by_prove_time rows in
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
      line "| %s | %s | %s | %s | %s | %.3f | %.0f | %.2f |" (ax r "backend")
        (ax r "queries") (ax r "records") (ax r "routers") (ax r "jobs") (v r "prove_s")
        (v r "proof_bytes") (v r "soundness_bits"))
    front;
  line "";
  line "## Where the proving seconds go";
  line "";
  line "Top spans per cell (`Zkflow_obs` snapshot embedded in the artifact):";
  line "";
  List.iter
    (fun r ->
      let top =
        List.stable_sort (fun (_, (_, a)) (_, (_, b)) -> Float.compare b a) r.R.phases
        |> List.filteri (fun i _ -> i < 4)
        |> List.map (fun (name, (_, s)) -> Printf.sprintf "%s %.3fs" name s)
      in
      if top <> [] then line "- `%s`: %s" (R.key r) (String.concat ", " top))
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

let report_json a =
  let* rows = matrix_rows a in
  Ok
    (Jsonx.Obj
       [
         ("artifact", R.to_json a);
         ("frontier", Jsonx.Arr (List.map (fun r -> Jsonx.Str (R.key r)) (frontier_by_prove_time rows)));
       ])
