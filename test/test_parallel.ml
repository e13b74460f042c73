(* Differential tests for the Domain work pool: every parallel hot
   path must be bit-identical to the sequential one across job
   counts, including empty and non-power-of-two inputs. *)

module Pool = Zkflow_parallel.Pool
module Tree = Zkflow_merkle.Tree
module D = Zkflow_hash.Digest32
module Gen = Zkflow_netflow.Gen
module Export = Zkflow_netflow.Export
open Zkflow_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let digest = Alcotest.testable D.pp D.equal
let digest64 = Zkflow_hash.Sha256.digest64
let job_sweep = [ 1; 2; 4 ]

let with_jobs j f =
  let saved = Pool.jobs () in
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* ---- pool mechanics ---- *)

let test_parallel_for_covers_range () =
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          let n = 10_000 in
          let hits = Array.make n 0 in
          Pool.parallel_for ~min_chunk:16 n (fun lo hi ->
              for i = lo to hi - 1 do
                hits.(i) <- hits.(i) + 1
              done);
          check_bool
            (Printf.sprintf "jobs=%d every index exactly once" j)
            true
            (Array.for_all (fun c -> c = 1) hits)))
    job_sweep

let test_init_and_map_array () =
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          let a = Pool.init_array ~min_chunk:8 1000 (fun i -> (i * 7) mod 31 ) in
          check_bool "init_array" true (a = Array.init 1000 (fun i -> (i * 7) mod 31));
          let doubled = Pool.map_array ~min_chunk:8 (fun x -> 2 * x) a in
          check_bool "map_array" true (doubled = Array.map (fun x -> 2 * x) a);
          check_int "empty init" 0 (Array.length (Pool.init_array 0 (fun i -> i)))))
    job_sweep

let test_exception_propagates () =
  with_jobs 4 (fun () ->
      Alcotest.check_raises "body exception re-raised" (Failure "boom") (fun () ->
          Pool.parallel_for ~min_chunk:1 64 (fun lo _hi ->
              if lo >= 32 then failwith "boom")))

let test_nested_regions_degrade () =
  with_jobs 4 (fun () ->
      let n = 64 in
      let out = Array.make (n * n) 0 in
      Pool.parallel_for ~min_chunk:1 n (fun lo hi ->
          for i = lo to hi - 1 do
            (* Nested region: must run sequentially, not deadlock. *)
            Pool.parallel_for ~min_chunk:1 n (fun lo2 hi2 ->
                for k = lo2 to hi2 - 1 do
                  out.((i * n) + k) <- i + k
                done)
          done);
      check_bool "nested result" true
        (Array.for_all Fun.id (Array.init (n * n) (fun x -> out.(x) = (x / n) + (x mod n)))))

let test_set_jobs_clamps () =
  with_jobs 3 (fun () ->
      Pool.set_jobs 0;
      check_int "clamped to 1" 1 (Pool.jobs ());
      Pool.set_jobs 2;
      check_int "takes effect" 2 (Pool.jobs ()))

(* ---- edge cases observed through the pool telemetry ---- *)

module Obs = Zkflow_obs.Obs

let run_region n = Pool.parallel_for ~min_chunk:1 n (fun _ _ -> ())

(* set_jobs between regions tears the pool down and rebuilds it at the
   new size; the spawned-domains counter proves the rebuild actually
   happened (and that an unchanged size does NOT rebuild). *)
let test_set_jobs_rebuilds_pool () =
  with_jobs 1 (fun () ->
      Obs.with_enabled (fun () ->
          Pool.set_jobs 3;
          run_region 1000;
          let after_first = (Pool.stats ()).Pool.spawned_domains in
          check_int "3-job pool spawned 2 workers" 2 after_first;
          run_region 1000;
          check_int "same size: no respawn" after_first
            (Pool.stats ()).Pool.spawned_domains;
          Pool.set_jobs 2;
          run_region 1000;
          check_int "rebuild at 2 jobs spawned 1 more" (after_first + 1)
            (Pool.stats ()).Pool.spawned_domains))

(* Nested regions must degrade to the sequential path, and the
   dedicated counter must say so — that counter is how a trace reader
   distinguishes "pool saturated" from "parallelism disabled". *)
let test_nested_seq_counter () =
  with_jobs 4 (fun () ->
      Obs.with_enabled (fun () ->
          Pool.parallel_for ~min_chunk:1 64 (fun lo hi ->
              for _ = lo to hi - 1 do
                Pool.parallel_for ~min_chunk:1 64 (fun _ _ -> ())
              done);
          let s = Pool.stats () in
          check_int "outer pooled region" 1 s.Pool.regions;
          check_int "every inner region degraded" 64 s.Pool.nested_seq;
          check_bool "no top-level sequential fallback" true
            (s.Pool.seq_regions = 0)))

(* A chunk that raises still counts as an executed task, so the
   accounting stays consistent: tasks == chunk count of every drained
   region even on the error path. *)
let test_exception_keeps_counters_consistent () =
  with_jobs 4 (fun () ->
      Obs.with_enabled (fun () ->
          (try
             Pool.parallel_for ~min_chunk:1 64 (fun lo _hi ->
                 if lo >= 32 then failwith "boom")
           with Failure _ -> ());
          let s = Pool.stats () in
          check_int "one region drained" 1 s.Pool.regions;
          let h = Zkflow_obs.Metric.histogram "pool.region_chunks" in
          let snap = Zkflow_obs.Metric.snapshot h in
          check_int "one region observed" 1 snap.Zkflow_obs.Metric.count;
          check_int "tasks == chunks despite exceptions"
            snap.Zkflow_obs.Metric.sum s.Pool.tasks;
          check_bool "busy time recorded" true (s.Pool.busy_ns >= 0)))

(* ---- next_pow2 overflow guard ---- *)

let test_next_pow2 () =
  List.iter
    (fun (n, want) -> check_int (Printf.sprintf "next_pow2 %d" n) want (Tree.next_pow2 n))
    [ (0, 1); (1, 1); (2, 2); (3, 4); (5, 8); (1024, 1024); (1025, 2048) ];
  check_bool "max_int/2 still closes" true (Tree.next_pow2 (max_int / 2) > 0);
  Alcotest.check_raises "overflow guarded"
    (Invalid_argument "Tree.next_pow2: leaf count exceeds max_int / 2") (fun () ->
      ignore (Tree.next_pow2 ((max_int / 2) + 1)))

(* ---- differential: Merkle ---- *)

let tree_sizes = [ 0; 1; 2; 3; 7; 100; 257; 1024; 5000 ]

let leaf_data n = Array.init n (fun i -> Bytes.of_string (Printf.sprintf "par-%d" i))
let of_leaves ~node data = Tree.of_leaves ~node (Zkflow_util.Column.of_array data)

let test_tree_roots_match_sequential () =
  List.iter
    (fun n ->
      let data = leaf_data n in
      let hs = Array.map Tree.leaf_hash data in
      let base_tree =
        with_jobs 1 (fun () -> Tree.root (Tree.of_leaf_hashes ~node:digest64 hs))
      in
      let base_leaves =
        with_jobs 1 (fun () -> Tree.root (of_leaves ~node:digest64 data))
      in
      List.iter
        (fun j ->
          with_jobs j (fun () ->
              let tag f = Printf.sprintf "n=%d jobs=%d %s" n j f in
              Alcotest.check digest (tag "of_leaf_hashes") base_tree
                (Tree.root (Tree.of_leaf_hashes ~node:digest64 hs));
              Alcotest.check digest (tag "of_leaves") base_leaves
                (Tree.root (of_leaves ~node:digest64 data))))
        job_sweep)
    tree_sizes

let test_clog_root_matches_sequential () =
  List.iter
    (fun n ->
      let rng = Zkflow_util.Rng.create (Int64.of_int (77 + n)) in
      let records = Gen.records rng Gen.default_profile ~router_id:0 ~count:n in
      let base =
        with_jobs 1 (fun () -> Clog.root (Clog.apply_batch Clog.empty records))
      in
      List.iter
        (fun j ->
          with_jobs j (fun () ->
              Alcotest.check digest
                (Printf.sprintf "clog n=%d jobs=%d" n j)
                base
                (Clog.root (Clog.apply_batch Clog.empty records))))
        job_sweep)
    [ 0; 1; 33; 600 ]

(* ---- differential: sharded aggregation ---- *)

let test_prove_sharded_matches_sequential () =
  let rng = Zkflow_util.Rng.create 0xdeadL in
  let records = Gen.records rng Gen.default_profile ~router_id:0 ~count:24 in
  let shards = 2 in
  let params = Zkflow_zkproof.Params.make ~queries:4 in
  let run () =
    match
      Aggregate.prove_sharded ~params ~prev_shards:(Array.make shards Clog.empty)
        ~shards records
    with
    | Ok rounds -> rounds
    | Error e -> Alcotest.fail e
  in
  let base = with_jobs 1 run in
  List.iter
    (fun j ->
      with_jobs j (fun () ->
          let rounds = run () in
          check_int (Printf.sprintf "jobs=%d shard count" j) shards
            (Array.length rounds);
          Array.iteri
            (fun i (r : Aggregate.round) ->
              let b = base.(i) in
              let tag s = Printf.sprintf "jobs=%d shard=%d %s" j i s in
              check_bool (tag "receipt bit-identical") true
                (r.Aggregate.receipt = b.Aggregate.receipt);
              Alcotest.check digest (tag "journal new_root")
                b.Aggregate.journal.Guests.new_root r.Aggregate.journal.Guests.new_root;
              Alcotest.check digest (tag "clog root") (Clog.root b.Aggregate.clog)
                (Clog.root r.Aggregate.clog))
            rounds))
    job_sweep

(* ---- differential: trace columns and the receipt ----

   The trace encoders size every leaf, then write chunks of leaves on
   the pool into disjoint byte ranges. A guest of 12k rows and as many
   accesses puts several chunks on each job, so the columns, every
   root and the receipt must come out the same at every job count. *)

let test_trace_columns_match_sequential () =
  let module Trace = Zkflow_zkvm.Trace in
  let module Prove = Zkflow_zkproof.Prove in
  let guest =
    Zkflow_zkvm.Asm.(
      assemble
        [ li t0 3000; li a0 0; label "l"; beq t0 zero "e"; add a0 a0 t0; addi t0 t0 (-1);
          j "l"; label "e"; halt 0 ])
  in
  let run = Zkflow_zkvm.Machine.run ~trace:true guest ~input:[||] in
  let columns_and_receipt () =
    ( Trace.encode_rows run.Zkflow_zkvm.Machine.rows,
      Trace.encode_log run.Zkflow_zkvm.Machine.memlog,
      Zkflow_zkproof.Receipt.encode
        (Result.get_ok (Prove.prove_result ~params:(Zkflow_zkproof.Params.make ~queries:8)
                          guest run)) )
  in
  let base_rows, base_mem, base_receipt = with_jobs 1 columns_and_receipt in
  check_bool "rows past two chunks" true (Trace.n_rows run.Zkflow_zkvm.Machine.rows > 8192);
  List.iter
    (fun j ->
      let rows, mem, receipt = with_jobs j columns_and_receipt in
      let tag s = Printf.sprintf "jobs=%d %s" j s in
      check_bool (tag "rows column") true (rows = base_rows);
      check_bool (tag "access-log column") true (mem = base_mem);
      check_bool (tag "receipt bytes (roots included)") true (Bytes.equal receipt base_receipt))
    [ 2; 3; 4 ]

(* ---- the equal-neighbour rule is chunk-blind ----

   Runs of equal leaves longer than a chunk, and a padded tail, so
   chunk boundaries fall inside runs on the leaf level and the levels
   above. A slot copies its left neighbour whatever chunk that
   neighbour is in, so the root and every hash counter must come out
   the same at every job count, under either node rule. *)

let test_neighbour_rule_chunk_blind () =
  let counters =
    List.map Zkflow_obs.Metric.counter
      [ "merkle.nodes_hashed"; "merkle.nodes_copied"; "sha256.compressions" ]
  in
  let build node data =
    let before = List.map Zkflow_obs.Metric.value counters in
    let root = Tree.root (of_leaves ~node data) in
    (root, List.map2 (fun c v -> Zkflow_obs.Metric.value c - v) counters before)
  in
  Zkflow_obs.Obs.with_enabled (fun () ->
      List.iter
        (fun ((rule, node), (n, run)) ->
          let data =
            Array.init n (fun i -> Bytes.of_string (Printf.sprintf "run-%d" (i / run)))
          in
          let base_root, base_counts = with_jobs 1 (fun () -> build node data) in
          check_bool "the rule fires" true (List.nth base_counts 1 > 0);
          List.iter
            (fun j ->
              let root, counts = with_jobs j (fun () -> build node data) in
              let tag s = Printf.sprintf "%s n=%d run=%d jobs=%d %s" rule n run j s in
              Alcotest.check digest (tag "root") base_root root;
              Alcotest.(check (list int)) (tag "hashed, copied, compressions") base_counts
                counts)
            [ 2; 3 ])
        (List.concat_map
           (fun rule ->
             List.map (fun shape -> (rule, shape)) [ (6000, 700); (5000, 1500); (4500, 97) ])
           [ ("digest64", digest64); ("node64", Zkflow_hash.Sha256.node64) ]))

(* ---- property: random trees agree across job counts ---- *)

let prop_tree_parallel_equals_sequential =
  QCheck.Test.make ~name:"parallel merkle == sequential merkle" ~count:30
    QCheck.(pair (int_range 0 600) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Zkflow_util.Rng.create (Int64.of_int seed) in
      let data = Array.init n (fun _ -> Zkflow_util.Rng.bytes rng 24) in
      let seq = with_jobs 1 (fun () -> Tree.root (of_leaves ~node:digest64 data)) in
      let par = with_jobs 3 (fun () -> Tree.root (of_leaves ~node:digest64 data)) in
      D.equal seq par)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "zkflow_parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_for covers range" `Quick test_parallel_for_covers_range;
          Alcotest.test_case "init/map array" `Quick test_init_and_map_array;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "nested regions degrade" `Quick test_nested_regions_degrade;
          Alcotest.test_case "set_jobs clamps" `Quick test_set_jobs_clamps;
          Alcotest.test_case "set_jobs rebuilds pool" `Quick test_set_jobs_rebuilds_pool;
          Alcotest.test_case "nested-seq counter" `Quick test_nested_seq_counter;
          Alcotest.test_case "exception keeps counters consistent" `Quick
            test_exception_keeps_counters_consistent;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "next_pow2 guard" `Quick test_next_pow2;
          Alcotest.test_case "roots match sequential" `Quick test_tree_roots_match_sequential;
          Alcotest.test_case "neighbour rule is chunk-blind" `Quick
            test_neighbour_rule_chunk_blind;
          Alcotest.test_case "clog root matches" `Quick test_clog_root_matches_sequential;
          q prop_tree_parallel_equals_sequential;
        ] );
      ( "zkproof",
        [
          Alcotest.test_case "trace columns and receipt match" `Quick
            test_trace_columns_match_sequential;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "prove_sharded differential" `Slow
            test_prove_sharded_matches_sequential;
        ] );
    ]
