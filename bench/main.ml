(* zkflow benchmark harness.

   Regenerates every evaluation artifact of the paper:
     fig4      — Figure 4: aggregation / query proof-generation latency
                 vs. number of NetFlow records, plus the constant-time
                 verification the text reports.
     table1    — Table 1: proof / journal / receipt sizes vs. records.
     matrix    — proof-backend benchmark matrix: one aggregation round
                 across backend (receipt vs 256-B wrap) × spot-check
                 queries × scale; writes BENCH_matrix.json + REPORT.md
                 with the cost/soundness Pareto frontier.
     tamper    — §5/§6 tampering experiment: modified data ⇒ no proof.
     par       — the multicore runtime: a Merkle build and a sharded
                 aggregation at each job count, bit-identical across
                 them; writes BENCH_par.json.
     ablations — par, then the §1/§3/§7 claims, one row each in
                 BENCH_ablations.json: partition by flow ID (shards
                 and the chained contrast), the TEE baseline, and
                 sketches as logging backends.
     micro     — substrate microbenchmarks (bechamel), including the
                 memory-check sort and z pass over the access log of
                 the 60k-cycle guest, its rows and access-log trees
                 under the trace-commitment node rule, and the five
                 column multiproofs of an ingest-steady-shaped receipt.
     obs       — observability overhead: the same prove round with
                 telemetry fully off vs fully on (events and
                 counters), gated against a <2% wall-time budget.

   Every BENCH_*.json lands in the working directory as one
   Bench_row artifact: the env block, taken once when the process
   starts, and one row per configuration.

   Usage: dune exec bench/main.exe
            [-- fig4|table1|sweep|matrix|tamper|ablations|par|obs|micro|all]
   Set ZKFLOW_BENCH_QUICK=1 to cap the sweep at 500 records. *)

module D = Zkflow_hash.Digest32
module Gen = Zkflow_netflow.Gen
module Export = Zkflow_netflow.Export
module Flowkey = Zkflow_netflow.Flowkey
module Receipt = Zkflow_zkproof.Receipt
module Pool = Zkflow_parallel.Pool
module Jsonx = Zkflow_util.Jsonx
module Obs = Zkflow_obs.Obs
open Zkflow_core

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* The last result and the fastest of [k] timed runs. *)
let best_of k f =
  let best = ref infinity and result = ref None in
  for _ = 1 to k do
    let v, t = time f in
    if t < !best then best := t;
    result := Some v
  done;
  (Option.get !result, !best)

let quick () = Sys.getenv_opt "ZKFLOW_BENCH_QUICK" = Some "1"

(* Every BENCH_*.json records the machine shape it was produced on
   plus provenance (git commit, dirty flag, hostname, SHA-256 kernel),
   so perf numbers are never compared across incomparable
   environments — bench-diff cross-checks these blocks. Taken once,
   before the first artifact is written: a later `git status` would
   see this process's own output and call the tree dirty. *)
let env =
  [
    ("zkflow_jobs", Jsonx.Num (float_of_int (Pool.jobs ())));
    ("ncores", Jsonx.Num (float_of_int (Domain.recommended_domain_count ())));
    ("quick", Jsonx.Bool (quick ()));
  ]
  @ Matrix.env_provenance ()

(* Machine-readable artifacts land next to the human tables so the
   perf trajectory is diffable across PRs. *)
let write path rows =
  Bench_row.write path { Bench_row.env; rows };
  Printf.printf "   wrote %s\n%!" path

let sizes () =
  if quick () then [ 50; 100; 500 ] else [ 50; 100; 500; 1000; 2000; 3000 ]

let routers = 4

(* ------------------------------------------------------------------ *)
(* Shared sweep: one aggregation + one query round per input size.
   Produces both Figure 4 (latencies) and Table 1 (sizes).            *)
(* ------------------------------------------------------------------ *)

type sweep_row = {
  n : int;
  jobs : int;
  agg_cycles : int;
  agg_exec_s : float;
  agg_prove_s : float;
  agg_verify_s : float;    (* total of [verify_batch] verifies *)
  q_cycles : int;
  q_exec_s : float;
  q_prove_s : float;
  q_verify_s : float;      (* total of [verify_batch] verifies *)
  proof_bytes : int;       (* wrapped seal: constant *)
  journal_bytes : int;
  receipt_bytes : int;
  helper_bytes : int;      (* multiproof helper digests, all five columns *)
  leaf_bytes : int;        (* opened leaf preimages, all five columns *)
  soundness_bits : float;  (* of the round's spot-check parameters *)
  agg_analyze_s : float;   (* full static audit of the guest, uncached *)
  q_analyze_s : float;
  phases : (string * (int * float)) list; (* span name -> count, total s *)
}

let sweep_cache : (int, sweep_row) Hashtbl.t = Hashtbl.create 8

(* Figure 4's verify columns are each the total of this many verifies
   of one receipt, named in the row's config: one verify takes
   0.3-4 ms, so a single shot follows the host's phase rather than the
   verifier. The batch is sized so that the 50-record row's totals,
   the smallest, clear bench-diff's 0.05 s floor and are gated. *)
let verify_batch = 200

let time_verifies ~program receipt =
  snd
    (time (fun () ->
         for _ = 1 to verify_batch do
           match Zkflow_zkproof.Verify.verify ~program receipt with
           | Ok () -> ()
           | Error e -> failwith e
         done))

let run_size n =
  match Hashtbl.find_opt sweep_cache n with
  | Some row -> row
  | None ->
    (* Level the heap between sizes so one size's garbage doesn't bill
       the next size's timings. *)
    Gc.compact ();
    (* The whole size runs under telemetry: the same rows that time the
       round also carry its phase breakdown and pool utilization. *)
    Obs.reset ();
    Obs.enable ();
    let rng = Zkflow_util.Rng.create (Int64.of_int (0xbe5c + n)) in
    let batches =
      List.init routers (fun r ->
          let records =
            Gen.records rng Gen.default_profile ~router_id:r ~count:(n / routers)
          in
          (Export.batch_hash records, records))
    in
    let round =
      match Aggregate.prove_round ~prev:Clog.empty batches with
      | Ok r -> r
      | Error e -> failwith e
    in
    let agg_program = Lazy.force Guests.aggregation_program in
    (* The paper's query: SUM(hop_count) filtered on src/dst of a flow
       that exists in the CLog. *)
    let entry = (Clog.entries round.Aggregate.clog).(0) in
    let q =
      Query.sum_hops_between ~src:entry.Clog.key.Flowkey.src_ip
        ~dst:entry.Clog.key.Flowkey.dst_ip
    in
    let qrow =
      match Query.prove ~clog:round.Aggregate.clog q with
      | Ok r -> r
      | Error e -> failwith e
    in
    let q_program = Lazy.force Guests.query_program in
    (* Constant-size wrapped proof (Table 1 "Proof" column). *)
    let vkey = Zkflow_zkproof.Wrap.setup ~seed:(Bytes.of_string "bench-setup") in
    let wrapped =
      match Zkflow_zkproof.Wrap.wrap vkey ~program:agg_program round.Aggregate.receipt with
      | Ok w -> w
      | Error e -> failwith e
    in
    (* Analyzer wall time per guest: one full audit each, the cost
       `zkflow audit` pays. Independent of n, but recorded per row so
       the diff tooling sees it alongside the proving costs. *)
    let _, agg_analyze_s =
      time (fun () ->
          Zkflow_analysis.audit ~subject:"aggregation guest"
            (Zkflow_zkvm.Program.instrs agg_program))
    in
    let _, q_analyze_s =
      time (fun () ->
          Zkflow_analysis.audit ~subject:"query guest"
            (Zkflow_zkvm.Program.instrs q_program))
    in
    let phases = Obs.span_totals_s () in
    (* The verify batches run with telemetry off, so the row's phases
       stay those of the proves and the audits. *)
    Obs.disable ();
    let agg_verify_s = time_verifies ~program:agg_program round.Aggregate.receipt in
    let q_verify_s = time_verifies ~program:q_program qrow.Query.receipt in
    let seal_bytes f =
      List.fold_left
        (fun n (_, c) -> n + f c)
        0
        (Receipt.columns round.Aggregate.receipt.Receipt.seal)
    in
    let row =
      {
        n;
        jobs = Pool.jobs ();
        agg_cycles = round.Aggregate.cycles;
        agg_exec_s = round.Aggregate.execute_s;
        agg_prove_s = round.Aggregate.prove_s;
        agg_verify_s;
        q_cycles = qrow.Query.cycles;
        q_exec_s = qrow.Query.execute_s;
        q_prove_s = qrow.Query.prove_s;
        q_verify_s;
        proof_bytes = Bytes.length wrapped.Zkflow_zkproof.Wrap.seal256;
        journal_bytes = Receipt.journal_size round.Aggregate.receipt;
        receipt_bytes = Receipt.size round.Aggregate.receipt;
        helper_bytes = seal_bytes (fun c -> Bytes.length c.Receipt.helpers);
        leaf_bytes =
          seal_bytes (fun c ->
              Array.fold_left (fun n l -> n + Bytes.length l) 0 c.Receipt.leaves);
        soundness_bits =
          Zkflow_zkproof.Params.soundness_bits
            round.Aggregate.receipt.Receipt.seal.Receipt.params;
        agg_analyze_s;
        q_analyze_s;
        phases;
      }
    in
    Hashtbl.replace sweep_cache n row;
    row

let fig4 () =
  print_endline "== Figure 4: proof generation latency vs #records ==";
  print_endline "   (4 routers; aggregation = Algorithm 1 in the zkVM;";
  print_endline "    query = SELECT SUM(hop_count) WHERE src AND dst)";
  Printf.printf "   (verify: the mean of a batch of %d)\n" verify_batch;
  Printf.printf "%8s %12s %14s %14s %14s %14s %12s\n" "records" "agg cycles"
    "agg prove (s)" "query prove(s)" "agg verify(ms)" "q verify (ms)" "exec (s)";
  let per_verify_ms s = 1000. *. s /. float_of_int verify_batch in
  List.iter
    (fun n ->
      let r = run_size n in
      Printf.printf "%8d %12d %14.2f %14.2f %14.2f %14.2f %12.2f\n%!" r.n
        r.agg_cycles r.agg_prove_s r.q_prove_s (per_verify_ms r.agg_verify_s)
        (per_verify_ms r.q_verify_s) (r.agg_exec_s +. r.q_exec_s))
    (sizes ());
  write "BENCH_fig4.json"
    (List.map
       (fun n ->
         let r = run_size n in
         let open Bench_row in
         {
           config =
             [ ("records", Int r.n); ("jobs", Int r.jobs); ("verify_batch", Int verify_batch) ];
           metrics =
             [
               ("agg_cycles", count r.agg_cycles);
               ("agg_exec_s", seconds r.agg_exec_s);
               ("agg_prove_s", seconds r.agg_prove_s);
               ("agg_verify_s", seconds r.agg_verify_s);
               ("q_cycles", count r.q_cycles);
               ("q_exec_s", seconds r.q_exec_s);
               ("q_prove_s", seconds r.q_prove_s);
               ("q_verify_s", seconds r.q_verify_s);
               ("agg_analyze_s", seconds r.agg_analyze_s);
               ("q_analyze_s", seconds r.q_analyze_s);
             ];
           phases = r.phases;
         })
       (sizes ()));
  print_endline "   shape checks: prove time grows with records; verification stays flat."

let table1 () =
  print_endline "== Table 1: proof size of aggregation ==";
  Printf.printf "%12s %14s %13s %13s %13s %13s %17s\n" "# of records" "Proof (bytes)"
    "Journal (KB)" "Receipt (KB)" "Helpers (KB)" "Leaves (KB)" "Soundness (bits)";
  let kb b = float_of_int b /. 1024. in
  List.iter
    (fun n ->
      let r = run_size n in
      Printf.printf "%12d %14d %13.1f %13.1f %13.1f %13.1f %17.2f\n%!" r.n r.proof_bytes
        (kb r.journal_bytes) (kb r.receipt_bytes) (kb r.helper_bytes) (kb r.leaf_bytes)
        r.soundness_bits)
    (sizes ());
  write "BENCH_table1.json"
    (List.map
       (fun n ->
         let r = run_size n in
         let open Bench_row in
         {
           config = [ ("records", Int r.n); ("jobs", Int r.jobs) ];
           metrics =
             [
               ("proof_bytes", bytes r.proof_bytes);
               ("journal_bytes", bytes r.journal_bytes);
               ("receipt_bytes", bytes r.receipt_bytes);
               ("helper_bytes", bytes r.helper_bytes);
               ("leaf_bytes", bytes r.leaf_bytes);
               ("soundness_bits", bits r.soundness_bits);
             ];
           phases = r.phases;
         })
       (sizes ()));
  print_endline
    "   shape checks: proof constant (256 B); journal grows linearly; the receipt \
     grows with the journal and, by log(cycles), with the helpers."

(* ------------------------------------------------------------------ *)

let tamper () =
  print_endline "== Tampering experiment (Sec. 5 / Fig. 3) ==";
  List.iter (fun o -> Format.printf "   %a@." Tamper.pp_outcome o) (Tamper.all ());
  print_endline "   expected: every scenario DETECTED (no proof over modified data)."

(* ------------------------------------------------------------------ *)
(* Ablations (Sec. 7 discussion points)                                *)
(* ------------------------------------------------------------------ *)

let ablation_par () =
  print_endline "== Ablation: multicore proving runtime (Domain pool, ZKFLOW_JOBS) ==";
  let module Pool = Zkflow_parallel.Pool in
  let saved_jobs = Pool.jobs () in
  let ncores = Domain.recommended_domain_count () in
  let log_leaves = if quick () then 14 else 16 in
  let n_leaves = 1 lsl log_leaves in
  let hs =
    Array.init n_leaves (fun i -> D.hash_string (Printf.sprintf "par-leaf-%d" i))
  in
  let shards = 4 in
  let n_rec = if quick () then 120 else 400 in
  let rng = Zkflow_util.Rng.create 0xa11e1L in
  let records = Gen.records rng Gen.default_profile ~router_id:0 ~count:n_rec in
  let sweep = List.sort_uniq compare [ 1; 2; 4; ncores ] in
  let base = ref None in
  Printf.printf "%6s %16s %16s %10s %10s\n" "jobs"
    (Printf.sprintf "merkle 2^%d (s)" log_leaves)
    (Printf.sprintf "agg %d-shard (s)" shards)
    "speedup" "identical";
  let rows =
    List.map
      (fun j ->
        Pool.set_jobs j;
        Obs.reset ();
        Obs.enable ();
        let tree, merkle_s =
          best_of 3 (fun () ->
              Zkflow_merkle.Tree.of_leaf_hashes ~node:Zkflow_hash.Sha256.digest64 hs)
        in
        let rounds, agg_s =
          time (fun () ->
              match
                Aggregate.prove_sharded ~prev_shards:(Array.make shards Clog.empty)
                  ~shards records
              with
              | Ok r -> r
              | Error e -> failwith e)
        in
        let root = Zkflow_merkle.Tree.root tree in
        let identical =
          match !base with
          | None ->
            base := Some (root, rounds, merkle_s);
            true
          | Some (root1, rounds1, _) ->
            D.equal root root1
            && Array.for_all2
                 (fun (a : Aggregate.round) (b : Aggregate.round) ->
                   a.Aggregate.receipt = b.Aggregate.receipt
                   && D.equal a.Aggregate.journal.Guests.new_root
                        b.Aggregate.journal.Guests.new_root)
                 rounds rounds1
        in
        let base_merkle_s =
          match !base with Some (_, _, t) -> t | None -> merkle_s
        in
        Obs.disable ();
        Printf.printf "%6d %16.4f %16.3f %9.2fx %10B\n%!" j merkle_s agg_s
          (base_merkle_s /. merkle_s) identical;
        if not identical then begin
          Printf.eprintf
            "bench par: roots or receipts at %d jobs differ from the 1-job run\n" j;
          exit 1
        end;
        let row =
          let open Bench_row in
          {
            config =
              [
                ("leaves", Int n_leaves); ("shards", Int shards); ("records", Int n_rec);
                ("jobs", Int j);
              ];
            metrics = [ ("merkle_s", seconds merkle_s); ("agg_wall_s", seconds agg_s) ];
            phases = Obs.span_totals_s ();
          }
        in
        (j, merkle_s, row))
      sweep
  in
  Pool.set_jobs saved_jobs;
  let find_t j = List.find_map (fun (j', m, _) -> if j' = j then Some m else None) rows in
  (match (find_t 1, find_t 4) with
  | Some t1, Some t4 ->
    Printf.printf "   merkle speedup at 4 jobs vs 1: %.2fx (%d cores visible)\n" (t1 /. t4)
      ncores
  | _ -> ());
  write "BENCH_par.json" (List.map (fun (_, _, row) -> row) rows);
  print_endline "   identical=true certifies bit-equal roots and receipts";
  print_endline "   across job counts — parallelism never changes what is proven."

(* Every ablation row names its ablation and records the process's
   job count; [ablations] writes them all to BENCH_ablations.json. *)
let ablation_row name config metrics =
  let open Bench_row in
  {
    config = (("ablation", Str name) :: config) @ [ ("jobs", Int (Pool.jobs ())) ];
    metrics;
    phases = [];
  }

let print_rows rows =
  List.iter
    (fun (r : Bench_row.row) ->
      Printf.printf "   %s\n%!" (Bench_row.key r);
      List.iter
        (fun (name, (m : Bench_row.metric)) ->
          Printf.printf "      %-26s %12.6g %s\n" name m.Bench_row.value m.Bench_row.unit)
        r.Bench_row.metrics)
    rows

let ok = function Ok v -> v | Error e -> failwith e

(* Sec. 7's partition by flow ID: each shard is an independent CLog,
   so on [shards] provers the window's wall is its slowest shard. The
   contrast proves the same window as four chained rounds, each
   re-reading the CLog the round before it grew. *)
let ablation_shard () =
  print_endline "== Ablation: proof parallelization by flow ID (Sec. 7) ==";
  let n = if quick () then 200 else 1000 in
  let rng = Zkflow_util.Rng.create 777L in
  let records = Gen.records rng Gen.default_profile ~router_id:0 ~count:n in
  let shard_rows =
    List.map
      (fun shards ->
        let rounds =
          ok
            (Aggregate.prove_sharded ~prev_shards:(Array.make shards Clog.empty) ~shards
               records)
        in
        let prove_s = Array.map (fun r -> r.Aggregate.prove_s) rounds in
        let open Bench_row in
        ablation_row "shard"
          [ ("records", Int n); ("shards", Int shards) ]
          [
            ("serial_s", seconds (Array.fold_left ( +. ) 0. prove_s));
            ("wall_s", seconds (Array.fold_left max 0. prove_s));
            ("cycles", count (Array.fold_left (fun c r -> c + r.Aggregate.cycles) 0 rounds));
          ])
      [ 1; 2; 4; 8 ]
  in
  let parts = 4 in
  let per = n / parts in
  let _, total_s, cycles =
    List.fold_left
      (fun (prev, total_s, cycles) p ->
        let part = Array.sub records (p * per) per in
        let r = ok (Aggregate.prove_round ~prev [ (Export.batch_hash part, part) ]) in
        (r.Aggregate.clog, total_s +. r.Aggregate.prove_s, cycles + r.Aggregate.cycles))
      (Clog.empty, 0., 0) (List.init parts Fun.id)
  in
  let rows =
    shard_rows
    @ [
        Bench_row.(
          ablation_row "chain"
            [ ("records", Int n); ("parts", Int parts) ]
            [ ("total_s", seconds total_s); ("cycles", count cycles) ]);
      ]
  in
  print_rows rows;
  print_endline "   shards are independent CLogs (queries fan out and sum): wall_s is the";
  print_endline "   slowest shard; a chain re-reads the growing CLog every part.";
  rows

(* The TEE baseline of Sec. 1/3: an enclave on every vantage point
   ingests at capture time and attests per-flow reports, where zkflow
   needs no trusted hardware and proves off the capture path. Each
   timing is the total of a batch, named in the row's config, that
   takes 0.08-0.12 s on the 2-vCPU host of the committed baselines, so
   every one sits above bench-diff's 0.05 s floor and is gated: every
   record ingested 64 times, a report per record attested 8 times over,
   the last pass's reports verified 12 times over, and the sweep row's
   whole prove. *)
let ablation_tee () =
  print_endline "== Ablation: TEE baseline vs software-only (Sec. 1/3) ==";
  let module Enclave = Zkflow_tee.Enclave in
  let module Tee = Zkflow_tee.Tee_telemetry in
  let platform = Enclave.platform ~seed:(Bytes.of_string "bench") in
  let t = Tee.deploy platform ~router_ids:[ 0 ] ~code_id:"nf" in
  let n = 5000 and ingest_passes = 64 and attest_passes = 8 and verify_passes = 12 in
  let rng = Zkflow_util.Rng.create 5L in
  let records = Gen.records rng Gen.default_profile ~router_id:0 ~count:n in
  let (), ingest_s =
    time (fun () ->
        for _ = 1 to ingest_passes do
          Array.iter (fun r -> ok (Tee.ingest t r)) records
        done)
  in
  let keys = Array.map (fun r -> r.Zkflow_netflow.Record.key) records in
  let attest () = Array.map (fun key -> ok (Tee.flow_report t ~router_id:0 key)) keys in
  let reports, attest_s =
    time (fun () ->
        for _ = 2 to attest_passes do
          ignore (attest ())
        done;
        attest ())
  in
  let verified, verify_s =
    time (fun () ->
        let all = ref true in
        for _ = 1 to verify_passes do
          Array.iteri
            (fun i report ->
              all :=
                Tee.verify_report ~attestation_key:(Enclave.attestation_key platform)
                  ~expected_measurement:(Tee.code_measurement t) ~router_id:0 ~key:keys.(i)
                  report
                && !all)
            reports
        done;
        !all)
  in
  if not verified then failwith "bench tee: a flow report does not verify";
  let r = run_size (if quick () then 100 else 500) in
  let ingest_batch = ingest_passes * n and attest_batch = attest_passes * n in
  let verify_batch = verify_passes * n in
  let rows =
    let open Bench_row in
    [
      ablation_row "tee"
        [
          ("records", Int n);
          ("ingest_batch", Int ingest_batch);
          ("attest_batch", Int attest_batch);
          ("verify_batch", Int verify_batch);
          ("prove_records", Int r.n);
        ]
        [
          ("ingest_s", seconds ingest_s);
          ("attest_s", seconds attest_s);
          ("verify_s", seconds verify_s);
          ("zkflow_prove_s", seconds r.agg_prove_s);
        ];
    ]
  in
  print_rows rows;
  Printf.printf
    "   per record: TEE ingest %.2f us, attest %.1f us, verify %.1f us; zkflow prove %.3f ms\n"
    (1e6 *. ingest_s /. float_of_int ingest_batch)
    (1e6 *. attest_s /. float_of_int attest_batch)
    (1e6 *. verify_s /. float_of_int verify_batch)
    (1e3 *. r.agg_prove_s /. float_of_int r.n);
  print_endline "   trade-off: TEEs are cheap per record but need trusted hardware at every";
  print_endline "   vantage point; zkflow needs none and moves all cost off-path.";
  rows

(* Sec. 1's claim that sketches are interchangeable logging backends:
   memory (cells, or slots of a 16-byte key, a count and an error;
   HyperLogLog's registers in bytes) against the error on the 100
   heaviest of 10,000 Zipf flows, and the verifiable count-min's
   proof of one estimate. *)
let ablation_sketch () =
  print_endline "== Ablation: sketch-based logging backends (Sec. 1) ==";
  let module Countmin = Zkflow_sketch.Countmin in
  let module Spacesaving = Zkflow_sketch.Spacesaving in
  let module Hyperloglog = Zkflow_sketch.Hyperloglog in
  let flows = 10_000 in
  let rng = Zkflow_util.Rng.create 31337L in
  let keys = Gen.flows rng { Gen.default_profile with Gen.flow_count = flows } in
  (* Zipf packet counts *)
  let truth = Hashtbl.create flows in
  for _ = 1 to 200_000 do
    let k = keys.(Zkflow_util.Rng.zipf rng ~n:flows ~s:1.1 - 1) in
    Hashtbl.replace truth k (1 + Option.value (Hashtbl.find_opt truth k) ~default:0)
  done;
  let cms = Countmin.create ~width:4096 ~depth:4 in
  let ss = Spacesaving.create ~capacity:256 in
  let vs = Vsketch.create () in
  Hashtbl.iter
    (fun k c ->
      Countmin.add cms ~count:c (Flowkey.to_bytes k);
      Spacesaving.add ss ~count:c (Flowkey.to_bytes k);
      Vsketch.add vs ~count:c k)
    truth;
  let hll = Hyperloglog.create ~precision:12 in
  Array.iter (fun k -> Hyperloglog.add hll (Flowkey.to_bytes k)) keys;
  let top =
    Hashtbl.fold (fun k c acc -> (k, c) :: acc) truth []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
    |> List.filteri (fun i _ -> i < 100)
  in
  let top_error estimate =
    List.fold_left
      (fun acc (k, c) -> acc +. (float_of_int (abs (estimate k - c)) /. float_of_int c))
      0. top
    /. 100.
  in
  (* The verifiable count-min answers the heaviest flow in a guest. A
     prove takes under 0.1 s and one shot moved up to 1.8x between
     runs, so it is the best of three. *)
  let params = Zkflow_zkproof.Params.make ~queries:16 in
  let (receipt, _), vs_prove_s =
    best_of 3 (fun () -> ok (Vsketch.prove ~params vs (fst (List.hd top))))
  in
  let verified, vs_verify_s =
    time (fun () -> Vsketch.verify ~expected_commitment:(Vsketch.commitment vs) receipt)
  in
  ignore (ok verified);
  let rows =
    let open Bench_row in
    let ratio value = { value; unit = "ratio"; better = Lower } in
    let row backend = ablation_row "sketch" [ ("backend", Str backend); ("flows", Int flows) ] in
    [
      row "countmin"
        [
          ("memory_words", count (Countmin.memory_words cms));
          ( "top100_rel_error",
            ratio (top_error (fun k -> Countmin.estimate cms (Flowkey.to_bytes k))) );
        ];
      row "spacesaving"
        [
          ("memory_words", count (4 * Spacesaving.tracked ss));
          ( "top100_rel_error",
            ratio (top_error (fun k -> Spacesaving.estimate ss (Flowkey.to_bytes k))) );
        ];
      row "hyperloglog"
        [
          ("memory_bytes", bytes (Hyperloglog.memory_bytes hll));
          ( "distinct_rel_error",
            let truth = float_of_int flows in
            ratio (Float.abs (Hyperloglog.estimate hll -. truth) /. truth) );
        ];
      row "vsketch"
        [
          ("memory_words", count (Vsketch.width * Vsketch.depth));
          ("top100_rel_error", ratio (top_error (Vsketch.estimate vs)));
          ("prove_s", seconds vs_prove_s);
          ("verify_s", seconds vs_verify_s);
          ("receipt_bytes", bytes (Receipt.size receipt));
        ];
    ]
  in
  print_rows rows;
  rows

(* ------------------------------------------------------------------ *)
(* Observability overhead (DESIGN.md §15)                              *)
(* ------------------------------------------------------------------ *)

(* The telemetry plane's standing claim: a fully instrumented prove
   (gate enabled, events and counters recorded) costs < 2 % wall time
   over the same round with the gate cold. Both arms run the identical
   deterministic workload, best-of-reps so a stray scheduler hiccup
   doesn't decide the verdict. *)
let obs_overhead () =
  print_endline "== Observability overhead: prove with telemetry off vs on ==";
  let n = if quick () then 200 else 1000 in
  let reps = 3 in
  let budget = 0.02 in
  (* Interleave the arms (off, on, off, on, ...) so slow machine-wide
     drift — thermal throttling, a neighbour waking up — lands on both
     sides instead of billing whichever arm ran second. *)
  let one ~on ~rep =
    Gc.compact ();
    Obs.reset ();
    if on then Obs.enable ();
    let rng = Zkflow_util.Rng.create (Int64.of_int (0x0b5e + n + rep)) in
    let batches =
      List.init routers (fun r ->
          let records =
            Gen.records rng Gen.default_profile ~router_id:r
              ~count:(n / routers)
          in
          (Export.batch_hash records, records))
    in
    let _, s =
      time (fun () ->
          match Aggregate.prove_round ~prev:Clog.empty batches with
          | Ok r -> r
          | Error e -> failwith e)
    in
    if on then Obs.disable ();
    s
  in
  let off_best = ref infinity and on_best = ref infinity in
  for rep = 1 to reps do
    let s_off = one ~on:false ~rep in
    if s_off < !off_best then off_best := s_off;
    let s_on = one ~on:true ~rep in
    if s_on < !on_best then on_best := s_on
  done;
  let off_s = !off_best and on_s = !on_best in
  let delta = (on_s -. off_s) /. off_s in
  Printf.printf "%10s %14s\n" "backend" "prove (s)";
  Printf.printf "%10s %14.3f\n" "obs_off" off_s;
  Printf.printf "%10s %14.3f\n" "obs_on" on_s;
  Printf.printf "   prove-time delta: %+.2f%% (budget %.0f%%) — %s\n"
    (100. *. delta) (100. *. budget)
    (if delta <= budget then "within budget" else "OVER BUDGET");
  let row backend s =
    let open Bench_row in
    {
      config =
        [
          ("backend", Str backend);
          ("records", Int n);
          ("routers", Int routers);
          ("reps", Int reps);
          ("jobs", Int (Pool.jobs ()));
        ];
      metrics = [ ("agg_prove_s", seconds s) ];
      phases = [];
    }
  in
  write "BENCH_obs.json" [ row "obs_off" off_s; row "obs_on" on_s ];
  if delta > budget then
    Printf.printf
      "   note: advisory — single-shot timing on a shared machine; see \
       EXPERIMENTS.md\n"

(* ------------------------------------------------------------------ *)
(* Proof-backend benchmark matrix (DESIGN.md §14)                      *)
(* ------------------------------------------------------------------ *)

let matrix () =
  print_endline
    "== Proof-backend benchmark matrix (backend × queries × scale) ==";
  let grid = Matrix.default_grid ~quick:(quick ()) in
  (match Matrix.run ~log:(fun s -> Printf.printf "   %s\n%!" s) grid with
  | Error e -> failwith e
  | Ok rows ->
    write "BENCH_matrix.json" rows;
    (match Matrix.report_markdown { Bench_row.env; rows } with
    | Error e -> failwith ("matrix report: " ^ e)
    | Ok md ->
      let oc = open_out "REPORT.md" in
      output_string oc md;
      close_out oc;
      Printf.printf "   wrote REPORT.md\n%!"));
  print_endline
    "   shape checks: wrap cells cost one extra re-verify but ship 256-byte";
  print_endline
    "   proofs; more queries buys soundness bits linearly in seal bytes;";
  print_endline "   prove time grows with records, verification stays flat."

let ablations () =
  ablation_par ();
  let rows =
    List.concat_map
      (fun ablation ->
        print_newline ();
        ablation ())
      [ ablation_shard; ablation_tee; ablation_sketch ]
  in
  write "BENCH_ablations.json" rows

(* ------------------------------------------------------------------ *)
(* Microbenchmarks (bechamel)                                          *)
(* ------------------------------------------------------------------ *)

(* One aggregation round of the perfbench ingest-steady shape (a
   16-flow CLog updated by two records from each of 4 routers: 2,737
   cycles, 7,707 access-log entries): the guest, its input, its traced
   run and its receipt. *)
let ingest_shape_run () =
  let open Zkflow_zkproof in
  let module Rng = Zkflow_util.Rng in
  let rng = Rng.create 5L in
  let pop = Gen.flows rng { Gen.default_profile with flow_count = 16 } in
  let record ~router_id key =
    let packets = 1 + Rng.int rng 1000 in
    Zkflow_netflow.Record.make ~key ~first_ts:1000 ~last_ts:(1001 + Rng.int rng 900)
      ~router_id
      {
        Zkflow_netflow.Record.packets;
        bytes = packets * (64 + Rng.int rng 1400);
        hop_count = 1 + Rng.int rng 8;
        losses = Rng.int rng (1 + (packets / 100));
      }
  in
  let window router_id flows =
    let rs = Array.of_list (List.map (fun i -> record ~router_id pop.(i)) flows) in
    (Export.batch_hash rs, rs)
  in
  let first =
    List.init routers (fun r -> window r (List.filter (fun i -> i mod routers = r) (List.init 16 Fun.id)))
  in
  let prev = (Result.get_ok (Aggregate.prove_round ~prev:Clog.empty first)).Aggregate.clog in
  let second = List.init routers (fun r -> window r [ Rng.int rng 16; Rng.int rng 16 ]) in
  let run = Result.get_ok (Aggregate.execute ~prev second) in
  let program = Lazy.force Guests.aggregation_program in
  ( program,
    Guests.aggregation_input ~prev ~batches:second,
    run,
    Result.get_ok (Prove.prove_result program run) )

(* The five trace-commitment trees of that round, built from their
   columns as the prover builds them, each with the leaf set the
   receipt's challenges open and the receipt's column for it. *)
let ingest_shape_columns (program, _, run, receipt) =
  let open Zkflow_zkproof in
  let module Tree = Zkflow_merkle.Tree in
  let module Trace = Zkflow_zkvm.Trace in
  let s = receipt.Receipt.seal and rows = run.Zkflow_zkvm.Machine.rows in
  let memlog = run.Zkflow_zkvm.Machine.memlog in
  let node = Receipt.node in
  let entries = Trace.encode_log memlog in
  let perm = Result.get_ok (Memcheck.sort_perm memlog) in
  let jacc_leaves =
    let chain = ref Zkflow_hash.Chain.genesis in
    Array.init (Trace.n_rows rows) (fun i ->
        chain := Checker.jacc_step ~program !chain rows i;
        D.to_bytes (Zkflow_hash.Chain.head !chain))
  in
  let c, _ =
    Fs.derive ~claim:receipt.Receipt.claim
      ~journal:(Receipt.journal_digest receipt.Receipt.claim)
      ~queries:s.Receipt.params.Params.queries ~n_rows:s.Receipt.n_rows ~n_mem:s.Receipt.n_mem ~root_rows:s.Receipt.root_rows
      ~root_time:s.Receipt.root_time ~root_sorted:s.Receipt.root_sorted
      ~root_jacc:s.Receipt.root_jacc
      ~commit_z:(fun ~alpha:_ ~beta:_ -> s.Receipt.root_z)
  in
  let spans = Array.map (fun i -> (Trace.mem_pos rows i, Trace.mem_count rows i)) c.Fs.step_idx in
  let o = Fs.opened ~n_rows:s.Receipt.n_rows ~n_mem:s.Receipt.n_mem ~spans c in
  let z_leaves = Logleaf.pack (Memcheck.z_leaves ~alpha:c.Fs.alpha ~beta:c.Fs.beta memlog perm) in
  let log col entries column = (Tree.of_leaves ~node col, Logleaf.leaf_set entries, column) in
  [
    (Tree.of_leaves ~node (Trace.encode_rows rows), o.Fs.rows, s.Receipt.rows);
    (Tree.of_leaves ~node (Zkflow_util.Column.of_array jacc_leaves), o.Fs.rows, s.Receipt.jacc);
    log (Logleaf.pack entries) o.Fs.time s.Receipt.time;
    log (Logleaf.gather entries perm) o.Fs.sorted s.Receipt.sorted;
    log z_leaves o.Fs.z s.Receipt.z;
  ]

let micro () =
  print_endline "== Substrate microbenchmarks (bechamel, monotonic clock) ==";
  let open Bechamel in
  let data64k = Bytes.make 65536 'x' in
  let leaves =
    Zkflow_util.Column.of_array
      (Array.init 1024 (fun i -> Bytes.of_string (Printf.sprintf "leaf%d" i)))
  in
  let rng = Zkflow_util.Rng.create 9L in
  let zkvm_guest =
    Zkflow_zkvm.Asm.(
      assemble
        [
          li t0 20000; li a0 0;
          label "l";
          beq t0 zero "e";
          add a0 a0 t0;
          addi t0 t0 (-1);
          j "l";
          label "e";
          halt 0;
        ])
  in
  (* The memory-check kernels and the trace-commitment trees run over
     that guest's traced run. *)
  let traced = Zkflow_zkvm.Machine.run ~trace:true zkvm_guest ~input:[||] in
  let memlog = traced.memlog in
  let row_leaves = Zkflow_zkvm.Trace.encode_rows traced.rows in
  let mem_leaves = Zkflow_zkproof.Logleaf.pack (Zkflow_zkvm.Trace.encode_log memlog) in
  let trace_tree leaves () =
    ignore (Zkflow_merkle.Tree.of_leaves ~node:Zkflow_zkproof.Receipt.node leaves)
  in
  let perm = Result.get_ok (Zkflow_zkproof.Memcheck.sort_perm memlog) in
  let alpha = Zkflow_field.Fp2.random rng and beta = Zkflow_field.Fp2.random rng in
  (* The prover's helper extraction and the verifier's authentication
     (leaf hashing and one climb per root) of all five columns. *)
  let module Multiproof = Zkflow_merkle.Multiproof in
  let ((ingest_program, ingest_input, ingest_run, ingest_receipt) as ingest) =
    ingest_shape_run ()
  in
  let columns = ingest_shape_columns ingest in
  (* The verifier's whole check of that receipt, and the Fiat–Shamir
     schedule every prove and verify runs (journal digest included). *)
  let derive_ingest () =
    let open Zkflow_zkproof in
    let claim = ingest_receipt.Receipt.claim and s = ingest_receipt.Receipt.seal in
    Fs.derive ~claim ~journal:(Receipt.journal_digest claim)
      ~queries:s.Receipt.params.Params.queries ~n_rows:s.Receipt.n_rows ~n_mem:s.Receipt.n_mem
      ~root_rows:s.Receipt.root_rows ~root_time:s.Receipt.root_time
      ~root_sorted:s.Receipt.root_sorted ~root_jacc:s.Receipt.root_jacc
      ~commit_z:(fun ~alpha:_ ~beta:_ -> s.Receipt.root_z)
  in
  (* The prover's access-log commitment at that shape: encode the log
     once, pack the time column, gather the sorted one and build the
     time, sorted and z trees (the z entries computed beforehand). *)
  let log_commit_ingest =
    let open Zkflow_zkproof in
    let memlog = ingest_run.Zkflow_zkvm.Machine.memlog in
    let perm = Result.get_ok (Memcheck.sort_perm memlog) in
    let z = Logleaf.pack (Memcheck.z_leaves ~alpha ~beta memlog perm) in
    let tree col = ignore (Zkflow_merkle.Tree.of_leaves ~node:Receipt.node col) in
    fun () ->
      let entries = Zkflow_zkvm.Trace.encode_log memlog in
      tree (Logleaf.pack entries);
      tree (Logleaf.gather entries perm);
      tree z
  in
  if not (Zkflow_zkproof.Verify.check ~program:ingest_program ingest_receipt) then
    failwith "micro: the ingest-shape receipt does not verify";
  let verify_column (tree, set, (col : Receipt.column)) =
    let k = Array.length col.Receipt.leaves in
    let digests = Bytes.create (32 * k) in
    ignore
      (Zkflow_merkle.Proof.leaves_into (Zkflow_hash.Sha256.init ())
         (Zkflow_util.Column.of_array col.Receipt.leaves)
         ~dst:digests ~lo:0 ~hi:k);
    let proof =
      { Multiproof.depth = Zkflow_merkle.Tree.depth tree; indices = set; helpers = col.Receipt.helpers }
    in
    Multiproof.verify ~node:Receipt.node ~root:(Zkflow_merkle.Tree.root tree) proof digests
  in
  List.iter
    (fun ((tree, set, (col : Receipt.column)) as column) ->
      if not ((Multiproof.prove tree set).Multiproof.helpers = col.Receipt.helpers
              && verify_column column)
      then failwith "micro: a column of the ingest-shape receipt does not match its tree")
    columns;
  let tests =
    [
      Test.make ~name:"sha256-64KB" (Staged.stage (fun () ->
          ignore (Zkflow_hash.Sha256.digest data64k)));
      Test.make ~name:"merkle-1024-leaves" (Staged.stage (fun () ->
          ignore (Zkflow_merkle.Tree.of_leaves ~node:Zkflow_hash.Sha256.digest64 leaves)));
      Test.make ~name:"zkvm-60k-cycles" (Staged.stage (fun () ->
          ignore (Zkflow_zkvm.Machine.run zkvm_guest ~input:[||])));
      Test.make ~name:"memcheck-sort" (Staged.stage (fun () ->
          ignore (Zkflow_zkproof.Memcheck.sort_perm memlog)));
      Test.make ~name:"memcheck-z" (Staged.stage (fun () ->
          ignore (Zkflow_zkproof.Memcheck.z_leaves ~alpha ~beta memlog perm)));
      Test.make ~name:"trace-record-ingest" (Staged.stage (fun () ->
          ignore (Zkflow_zkvm.Machine.run ~trace:true ingest_program ~input:ingest_input)));
      Test.make ~name:"trace-encode-ingest" (Staged.stage (fun () ->
          ignore (Zkflow_zkvm.Trace.encode_rows ingest_run.Zkflow_zkvm.Machine.rows);
          ignore (Zkflow_zkvm.Trace.encode_log ingest_run.Zkflow_zkvm.Machine.memlog)));
      Test.make ~name:"merkle-trace-rows" (Staged.stage (trace_tree row_leaves));
      Test.make ~name:"merkle-trace-mem" (Staged.stage (trace_tree mem_leaves));
      Test.make ~name:"log-commit-ingest" (Staged.stage log_commit_ingest);
      Test.make ~name:"multiproof-prove" (Staged.stage (fun () ->
          List.iter (fun (tree, set, _) -> ignore (Multiproof.prove tree set)) columns));
      Test.make ~name:"multiproof-verify" (Staged.stage (fun () ->
          List.iter (fun column -> ignore (verify_column column)) columns));
      Test.make ~name:"verify-ingest" (Staged.stage (fun () ->
          ignore (Zkflow_zkproof.Verify.verify ~program:ingest_program ingest_receipt)));
      Test.make ~name:"fs-derive" (Staged.stage (fun () -> ignore (derive_ingest ())));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) () in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                     ~predictors:[| Measure.run |]) instance raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "   %-24s %12.1f ns/op\n%!" name est
        | _ -> Printf.printf "   %-24s (no estimate)\n%!" name)
      results
  in
  List.iter benchmark tests

(* ------------------------------------------------------------------ *)

let () =
  let target = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let all () =
    fig4 ();
    print_newline ();
    table1 ();
    print_newline ();
    matrix ();
    print_newline ();
    tamper ();
    print_newline ();
    ablations ();
    print_newline ();
    obs_overhead ();
    print_newline ();
    micro ()
  in
  match target with
  | "fig4" -> fig4 ()
  | "table1" -> table1 ()
  | "sweep" ->
    (* fig4 + table1 in one process so the sweep cache is shared. *)
    fig4 ();
    print_newline ();
    table1 ()
  | "matrix" -> matrix ()
  | "tamper" -> tamper ()
  | "ablations" -> ablations ()
  | "par" -> ablation_par ()
  | "obs" -> obs_overhead ()
  | "micro" -> micro ()
  | "all" -> all ()
  | other ->
    Printf.eprintf "unknown bench target %S\n" other;
    exit 2
