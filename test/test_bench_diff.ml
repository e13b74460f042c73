(* Bench_diff's rules and the Bench_row reader they lean on, tested on
   hand-built artifacts: whole-config key matching (a grid change must
   read as coverage notes, never as a false regression), the reader's
   refusals, the [min_s] noise floor, the declared [better] direction,
   the env provenance cross-checks and the per-row oversubscription
   note. The committed BENCH_*.json files are read back and
   self-diffed. *)

module Jsonx = Zkflow_util.Jsonx
module Bench_diff = Zkflow_core.Bench_diff
module R = Zkflow_core.Bench_row

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- fixtures ---------------------------------------------------- *)

(* One row with a five-axis config, a timing, byte counts and
   soundness bits: the shapes every artifact's rows take. *)
let row ?(backend = "receipt") ?(queries = 16) ?(records = 48) ?(routers = 2)
    ?(jobs = 1) ?(prove_s = 1.0) ?(verify_s = 0.01) ?(proof_bytes = 1000)
    ?(bits = 1.0) ?(phases = [ ("stark.prove", 0.7); ("merkle.build", 0.2) ]) ()
    =
  {
    R.config =
      [
        ("backend", R.Str backend);
        ("queries", R.Int queries);
        ("records", R.Int records);
        ("routers", R.Int routers);
        ("jobs", R.Int jobs);
      ];
    metrics =
      [
        ("agg_cycles", R.count 12000);
        ("exec_s", R.seconds 0.01);
        ("prove_s", R.seconds prove_s);
        ("verify_s", R.seconds verify_s);
        ("proof_bytes", R.bytes proof_bytes);
        ("journal_bytes", R.bytes 904);
        ("receipt_bytes", R.bytes (proof_bytes + 904));
        ("soundness_bits", R.bits bits);
      ];
    phases =
      List.map (fun (name, s) -> (name, { R.count = 1; total_s = s; compressions = None })) phases;
  }

let artifact ?(env = []) rows = { R.env; rows }

(* ---- the reader -------------------------------------------------- *)

let test_artifact_parse_failures () =
  let read_err text =
    match Jsonx.parse text with
    | Error e -> Alcotest.fail e
    | Ok doc -> (
      match R.of_json doc with
      | Error e -> e
      | Ok _ -> Alcotest.fail "expected a read error")
  in
  check_bool "no schema tag" true (contains ~needle:"\"schema\"" (read_err {|{"env":{},"rows":[]}|}));
  check_bool "a row without config" true
    (contains ~needle:"row 0 has no \"config\""
       (read_err {|{"schema":"zkflow-bench/v1","env":{},"rows":[{"metrics":{},"phases":{}}]}|}));
  (* an unknown direction makes the metric malformed, by name *)
  check_bool "a malformed metric is named" true
    (contains ~needle:"metric \"prove_s\" is malformed"
       (read_err
          {|{"schema":"zkflow-bench/v1","env":{},"rows":[{"config":{"jobs":1},
             "metrics":{"prove_s":{"value":1,"unit":"s","better":"down"}},"phases":{}}]}|}))

(* ---- Bench_diff: whole-config matching --------------------------- *)

let diff_exn ?threshold ?min_s old_a new_a =
  match
    Bench_diff.diff ?threshold ?min_s ~old_json:(R.to_json old_a) ~new_json:(R.to_json new_a) ()
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "diff failed: %s" e

let test_key_is_whole_config () =
  let cfg config = { R.config; metrics = []; phases = [] } in
  check_string "a sweep row" "records=100 jobs=1"
    (R.key (cfg [ ("records", R.Int 100); ("jobs", R.Int 1) ]));
  check_string "an incr row: every axis, whatever its name"
    "entries=1000 update_k=10 rounds=4 jobs=1"
    (R.key
       (cfg
          [ ("entries", R.Int 1000); ("update_k", R.Int 10); ("rounds", R.Int 4); ("jobs", R.Int 1) ]));
  check_string "a queries row" "shape=ingest queries=48 prove_batch=40 verify_batch=1500 jobs=1"
    (R.key
       (cfg
          [
            ("shape", R.Str "ingest"); ("queries", R.Int 48); ("prove_batch", R.Int 40);
            ("verify_batch", R.Int 1500); ("jobs", R.Int 1);
          ]));
  check_string "a five-axis row, in config order"
    "backend=wrap queries=16 records=48 routers=2 jobs=2"
    (R.key (row ~backend:"wrap" ~queries:16 ~records:48 ~routers:2 ~jobs:2 ()));
  (* the key and every value survive the JSON round trip *)
  let a =
    artifact ~env:[ ("ncores", Jsonx.Num 2.) ]
      [ row ~queries:8 (); row ~backend:"wrap" ~prove_s:2.0 ~proof_bytes:256 (); row ~bits:4.0 () ]
  in
  check_bool "round trip" true (R.of_json (R.to_json a) = Ok a)

let test_matrix_rows_matched_by_config () =
  (* same grid, one cell's prove time regressed: the regression names
     that cell's full key and nothing else *)
  let old_a = artifact [ row ~queries:8 ~prove_s:1.0 (); row ~queries:16 ~prove_s:1.0 () ] in
  let new_a = artifact [ row ~queries:8 ~prove_s:1.0 (); row ~queries:16 ~prove_s:2.0 () ] in
  let r = diff_exn old_a new_a in
  check_bool "regressed" false (Bench_diff.ok r);
  check_int "one regression" 1 (List.length r.Bench_diff.regressions);
  let c = List.hd r.Bench_diff.regressions in
  check_string "full config key"
    "backend=receipt queries=16 records=48 routers=2 jobs=1" c.Bench_diff.key;
  check_string "field" "prove_s" c.Bench_diff.field

let test_mismatched_grids_are_notes () =
  (* the NEW artifact dropped the queries=8 cell and added queries=48:
     coverage drift on both sides, zero regressions *)
  let old_a = artifact [ row ~queries:8 (); row ~queries:16 () ] in
  let new_a = artifact [ row ~queries:16 (); row ~queries:48 () ] in
  let r = diff_exn old_a new_a in
  check_bool "no false regressions" true (Bench_diff.ok r);
  check_bool "dropped cell noted" true
    (List.exists
       (fun n -> contains ~needle:"queries=8" n && contains ~needle:"missing in NEW" n)
       r.Bench_diff.notes);
  check_bool "added cell noted" true
    (List.exists
       (fun n -> contains ~needle:"queries=48" n && contains ~needle:"only in NEW" n)
       r.Bench_diff.notes)

let test_backend_distinguishes_rows () =
  (* identical scale and queries, different backend: these are
     different cells, so a wrap-only slowdown never bills to receipt *)
  let old_a = artifact [ row ~backend:"receipt" ~prove_s:1.0 (); row ~backend:"wrap" ~prove_s:1.0 () ] in
  let new_a = artifact [ row ~backend:"receipt" ~prove_s:1.0 (); row ~backend:"wrap" ~prove_s:3.0 () ] in
  let r = diff_exn old_a new_a in
  check_int "one regression" 1 (List.length r.Bench_diff.regressions);
  check_bool "bills the wrap cell" true
    (contains ~needle:"backend=wrap" (List.hd r.Bench_diff.regressions).Bench_diff.key)

(* ---- Bench_diff: min_s floor, one-side metrics, direction -------- *)

let timing_rows v = artifact [ row ~verify_s:v () ]

let test_min_s_floor_boundary () =
  (* both sides under the floor: a 10x blowup on microsecond noise is
     not a regression *)
  let r = diff_exn ~min_s:0.05 (timing_rows 0.004) (timing_rows 0.04) in
  check_bool "sub-floor noise ignored" true (Bench_diff.ok r);
  (* the new value landing exactly on the floor re-arms the check *)
  let r = diff_exn ~min_s:0.05 (timing_rows 0.004) (timing_rows 0.05) in
  check_bool "at-floor value counted" false (Bench_diff.ok r);
  (* either side at/above the floor is enough: a timing that fell from
     above the floor to almost nothing still reads as an improvement *)
  let r = diff_exn ~min_s:0.05 (timing_rows 0.2) (timing_rows 0.002) in
  check_bool "still ok" true (Bench_diff.ok r);
  check_int "improvement recorded" 1 (List.length r.Bench_diff.improvements);
  (* the floor is for seconds only: a count below it is still judged *)
  let counted v = artifact [ { (row ()) with R.metrics = [ ("tiny", { (R.count 0) with R.value = v }) ] } ] in
  check_bool "a count has no floor" false (Bench_diff.ok (diff_exn ~min_s:0.05 (counted 0.004) (counted 0.04)))

let test_one_side_field_is_note () =
  let base = row () in
  let with_extra = { base with R.metrics = ("wrap_s", R.seconds 0.2) :: base.R.metrics } in
  let r = diff_exn (artifact [ with_extra ]) (artifact [ base ]) in
  check_bool "no regression" true (Bench_diff.ok r);
  check_bool "field drop noted" true
    (List.exists (fun n -> contains ~needle:"wrap_s" n) r.Bench_diff.notes)

let test_higher_is_better_inverts () =
  (* losing soundness bits is the regression... *)
  let r = diff_exn (artifact [ row ~bits:3.55 () ]) (artifact [ row ~bits:0.59 () ]) in
  check_bool "fewer bits regresses" false (Bench_diff.ok r);
  check_bool "names soundness_bits" true
    (List.exists
       (fun c -> c.Bench_diff.field = "soundness_bits")
       r.Bench_diff.regressions);
  (* ...and gaining them is the improvement, unlike every cost metric *)
  let r = diff_exn (artifact [ row ~bits:0.59 () ]) (artifact [ row ~bits:3.55 () ]) in
  check_bool "more bits ok" true (Bench_diff.ok r);
  check_bool "counted as improvement" true
    (List.exists
       (fun c -> c.Bench_diff.field = "soundness_bits")
       r.Bench_diff.improvements);
  (* the declaration decides, not the name: reused nodes are better
     when more, and falling is the regression *)
  let reused n =
    artifact
      [ { (row ()) with R.metrics = [ ("nodes_reused", { (R.count n) with R.better = R.Higher }) ] } ]
  in
  let r = diff_exn (reused 1000) (reused 400) in
  check_bool "fewer reused regresses" false (Bench_diff.ok r);
  check_bool "more reused improves" true
    (List.length (diff_exn (reused 400) (reused 1000)).Bench_diff.improvements = 1)

(* Table 1 rows split the receipt into helper and leaf bytes; both
   are compared like every other byte count: more is a regression,
   less an improvement, with no timing floor. *)
let test_table1_helper_and_leaf_bytes () =
  let table1 ~helpers ~leaves =
    artifact
      [
        {
          R.config = [ ("records", R.Int 500); ("jobs", R.Int 1) ];
          metrics =
            [
              ("receipt_bytes", R.bytes (helpers + leaves + 1000));
              ("helper_bytes", R.bytes helpers);
              ("leaf_bytes", R.bytes leaves);
            ];
          phases = [];
        };
      ]
  in
  let fields cs = List.sort compare (List.map (fun c -> c.Bench_diff.field) cs) in
  let r =
    diff_exn (table1 ~helpers:80_000 ~leaves:12_000) (table1 ~helpers:160_000 ~leaves:6_000)
  in
  Alcotest.(check (list string))
    "helpers doubled" [ "helper_bytes"; "receipt_bytes" ]
    (fields r.Bench_diff.regressions);
  Alcotest.(check (list string)) "leaves halved" [ "leaf_bytes" ] (fields r.Bench_diff.improvements)

(* ---- Bench_diff: env provenance notes ---------------------------- *)

let env ?(kernel = "sha-ni") ~commit ~dirty ~host () =
  [
    ("git_commit", Jsonx.Str commit);
    ("git_dirty", Jsonx.Bool dirty);
    ("hostname", Jsonx.Str host);
    ("sha256_kernel", Jsonx.Str kernel);
    ("quick", Jsonx.Bool true);
  ]

let test_env_provenance_notes () =
  let a = artifact ~env:(env ~commit:"aaa1111" ~dirty:false ~host:"ci-1" ()) [ row () ] in
  let b =
    artifact ~env:(env ~kernel:"ocaml" ~commit:"bbb2222" ~dirty:true ~host:"dev-2" ()) [ row () ]
  in
  let r = diff_exn a b in
  (* provenance drift is caveat, not failure *)
  check_bool "still ok" true (Bench_diff.ok r);
  let has needle =
    List.exists (fun n -> contains ~needle n) r.Bench_diff.notes
  in
  check_bool "cross-commit note" true (has "cross-commit");
  check_bool "cross-machine note" true (has "cross-machine");
  check_bool "dirty NEW tree note" true (has "NEW artifact was produced from a dirty tree");
  check_bool "cross-kernel note" true
    (has "env: sha256_kernel differs (sha-ni vs ocaml) — cross-kernel comparison");
  (* the kernel alone differing is the one note *)
  let c = artifact ~env:(env ~kernel:"ocaml" ~commit:"aaa1111" ~dirty:false ~host:"ci-1" ()) [ row () ] in
  (match (diff_exn a c).Bench_diff.notes with
  | [ n ] -> check_bool "only the kernel note" true (contains ~needle:"cross-kernel" n)
  | ns -> Alcotest.failf "want one kernel note, got %d" (List.length ns));
  (* an artifact that does not record the kernel *)
  let unrecorded =
    artifact
      ~env:(List.remove_assoc "sha256_kernel" (env ~commit:"aaa1111" ~dirty:false ~host:"ci-1" ()))
      [ row () ]
  in
  check_bool "unrecorded kernel noted" true
    (List.mem "env: sha256_kernel differs (unrecorded vs sha-ni) — cross-kernel comparison"
       (diff_exn unrecorded a).Bench_diff.notes);
  check_int "neither side recorded: no note" 0
    (List.length (diff_exn unrecorded unrecorded).Bench_diff.notes);
  (* same provenance: none of those notes *)
  let r = diff_exn a a in
  check_int "no provenance notes" 0 (List.length r.Bench_diff.notes)

let test_oversubscribed_row_note () =
  let grid ?(extra = []) cores =
    artifact
      ~env:(env ~commit:"aaa" ~dirty:false ~host:"h" () @ (("ncores", Jsonx.Num cores) :: extra))
      [ row ~jobs:1 (); row ~jobs:2 (); row ~jobs:4 () ]
  in
  let notes a b =
    List.filter
      (fun n -> contains ~needle:"oversubscribed" n)
      (diff_exn a b).Bench_diff.notes
  in
  (* jobs = cores is honest, on either side *)
  check_int "no note at jobs <= cores" 0 (List.length (notes (grid 4.) (grid 4.)));
  (match notes (grid 2.) (grid 4.) with
  | [ n ] ->
    check_bool "OLD side named" true (contains ~needle:"of OLD" n);
    check_bool "names the row" true (contains ~needle:"[backend=receipt queries=16 records=48 routers=2 jobs=4]" n);
    check_bool "cites the counts" true (contains ~needle:"jobs 4 > ncores 2" n)
  | l -> Alcotest.failf "want one note for one oversubscribed OLD row, got %d" (List.length l));
  (match notes (grid 4.) (grid 1.) with
  | [ a; b ] ->
    check_bool "NEW side named" true (contains ~needle:"of NEW" a && contains ~needle:"of NEW" b);
    check_bool "the 2-job row" true (contains ~needle:"jobs=2]" a);
    check_bool "the 4-job row" true (contains ~needle:"jobs=4]" b)
  | l -> Alcotest.failf "want two notes for two oversubscribed NEW rows, got %d" (List.length l));
  (* the rows decide, not the process's own job count *)
  check_int "env zkflow_jobs is not judged" 0
    (List.length (notes (grid 4.) (grid ~extra:[ ("zkflow_jobs", Jsonx.Num 8.) ] 4.)));
  (* a caveat, never a regression *)
  check_bool "still ok" true (Bench_diff.ok (diff_exn (grid 1.) (grid 1.)))

let test_quick_flag_mismatch_note () =
  let quick = artifact ~env:(env ~commit:"aaa" ~dirty:false ~host:"h" ()) [ row () ] in
  let full =
    artifact
      ~env:
        [
          ("git_commit", Jsonx.Str "aaa");
          ("git_dirty", Jsonx.Bool false);
          ("hostname", Jsonx.Str "h");
          ("quick", Jsonx.Bool false);
        ]
      [ row () ]
  in
  let r = diff_exn quick full in
  check_bool "quick mismatch noted" true
    (List.exists (fun n -> contains ~needle:"quick-mode" n) r.Bench_diff.notes)

let test_nothing_compared_is_an_error () =
  let err old_a new_a =
    match Bench_diff.diff ~old_json:(R.to_json old_a) ~new_json:(R.to_json new_a) () with
    | Error e -> e
    | Ok _ -> Alcotest.fail "a diff that compares nothing must fail"
  in
  check_bool "disjoint keys" true
    (contains ~needle:"share no row key" (err (artifact [ row ~queries:8 () ]) (artifact [ row ~queries:16 () ])));
  let only m = artifact [ { (row ()) with R.metrics = [ (m, R.seconds 1.) ]; phases = [] } ] in
  check_bool "disjoint metrics" true (contains ~needle:"share no metric" (err (only "a_s") (only "b_s")));
  check_bool "an artifact that does not read is named" true
    (match Bench_diff.diff ~old_json:(Jsonx.Obj []) ~new_json:(R.to_json (artifact [ row () ])) () with
    | Error e -> contains ~needle:"OLD: no \"schema\"" e
    | Ok _ -> false)

(* ---- the committed artifacts ------------------------------------- *)

(* Every committed BENCH_*.json reads through the one reader, records
   its provenance, gives every row its jobs, and compares more than
   nothing against itself; only par's jobs sweep runs rows with more
   jobs than its host has cores. *)
let test_committed_artifacts () =
  List.iter
    (fun name ->
      (* the test runs in _build/default/test; dune copies the
         artifacts, declared as deps, into _build/default *)
      let path =
        Filename.concat
          (Filename.dirname (Filename.dirname Sys.executable_name))
          ("BENCH_" ^ name ^ ".json")
      in
      let json =
        match Jsonx.parse (In_channel.with_open_bin path In_channel.input_all) with
        | Ok j -> j
        | Error e -> Alcotest.failf "%s: %s" path e
      in
      let a = match R.of_json json with Ok a -> a | Error e -> Alcotest.failf "%s: %s" path e in
      check_bool (path ^ " has rows") true (a.R.rows <> []);
      List.iter
        (fun k -> check_bool (Printf.sprintf "%s env records %s" path k) true (List.mem_assoc k a.R.env))
        [ "git_commit"; "git_dirty"; "hostname"; "ncores"; "quick"; "sha256_kernel" ];
      List.iter
        (fun r -> check_bool (path ^ " row records jobs") true (List.mem_assoc "jobs" r.R.config))
        a.R.rows;
      let r = diff_exn a a in
      check_bool (path ^ " self-diff compares metrics") true (r.Bench_diff.compared > 0);
      if name <> "par" then
        check_int (path ^ " runs no row oversubscribed") 0
          (List.length (List.filter (fun n -> contains ~needle:"oversubscribed" n) r.Bench_diff.notes)))
    [ "fig4"; "table1"; "par"; "obs"; "queries"; "ablations" ]

(* A phase's compressions are a count: read back when present, absent
   from older artifacts without refusing them, and gated exactly. *)
let test_phase_compressions () =
  let with_phase compressions =
    artifact
      [
        {
          (row ()) with
          R.phases = [ ("merkle.build", { R.count = 5; total_s = 0.2; compressions }) ];
        };
      ]
  in
  let counted = with_phase (Some 21254) in
  check_bool "round trip" true (R.of_json (R.to_json counted) = Ok counted);
  (match
     Jsonx.parse
       {|{"schema":"zkflow-bench/v1","env":{},"rows":[{"config":{"jobs":1},"metrics":{},
          "phases":{"merkle.build":{"count":5,"total_s":0.2}}}]}|}
   with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
    match R.of_json doc with
    | Ok { R.rows = [ { R.phases = [ (_, p) ]; _ } ]; _ } ->
      check_bool "an older phase reads without compressions" true (p.R.compressions = None)
    | Ok _ -> Alcotest.fail "expected one row with one phase"
    | Error e -> Alcotest.fail e));
  let regressed old_a new_a threshold =
    List.map
      (fun c -> c.Bench_diff.field)
      (diff_exn ~threshold old_a new_a).Bench_diff.regressions
  in
  Alcotest.(check (list string))
    "one more compression regresses at any threshold" [ "phases.merkle.build.compressions" ]
    (regressed counted (with_phase (Some 21255)) 10.);
  Alcotest.(check (list string)) "equal counts pass" [] (regressed counted counted 0.);
  (* an older OLD has nothing to compare them with *)
  let r = diff_exn (with_phase None) counted in
  check_bool "older baseline still compares" true (Bench_diff.ok r);
  check_bool "a baseline's count missing in NEW is a note" true
    (List.exists
       (contains ~needle:"field phases.merkle.build.compressions")
       (diff_exn counted (with_phase None)).Bench_diff.notes)

(* ---- provenance -------------------------------------------------- *)

let test_env_provenance_fields () =
  let fields = R.env_provenance () in
  let has k = List.mem_assoc k fields in
  check_bool "git_commit" true (has "git_commit");
  check_bool "git_dirty" true (has "git_dirty");
  check_bool "hostname" true (has "hostname");
  check_bool "sha256_kernel is the live kernel" true
    (List.assoc_opt "sha256_kernel" fields = Some (Jsonx.Str Zkflow_hash.Sha256.kernel));
  (match List.assoc "git_dirty" fields with
  | Jsonx.Bool _ -> ()
  | _ -> Alcotest.fail "git_dirty should be a bool");
  match List.assoc "git_commit" fields with
  | Jsonx.Str s -> check_bool "non-empty commit" true (String.length s > 0)
  | _ -> Alcotest.fail "git_commit should be a string"

let () =
  Alcotest.run "zkflow_bench_diff"
    [
      ( "report",
        [
          Alcotest.test_case "artifact parse failures" `Quick
            test_artifact_parse_failures;
        ] );
      ( "bench-diff keys",
        [
          Alcotest.test_case "key is the whole config" `Quick test_key_is_whole_config;
          Alcotest.test_case "matrix rows matched by full config" `Quick
            test_matrix_rows_matched_by_config;
          Alcotest.test_case "grid changes are notes, not regressions" `Quick
            test_mismatched_grids_are_notes;
          Alcotest.test_case "backend separates otherwise-equal rows" `Quick
            test_backend_distinguishes_rows;
          Alcotest.test_case "nothing compared is an error" `Quick
            test_nothing_compared_is_an_error;
        ] );
      ( "bench-diff rules",
        [
          Alcotest.test_case "min_s floor boundary" `Quick test_min_s_floor_boundary;
          Alcotest.test_case "one-side field is a note" `Quick
            test_one_side_field_is_note;
          Alcotest.test_case "table1 helper and leaf bytes" `Quick
            test_table1_helper_and_leaf_bytes;
          Alcotest.test_case "better: higher inverts" `Quick test_higher_is_better_inverts;
          Alcotest.test_case "env provenance notes" `Quick test_env_provenance_notes;
          Alcotest.test_case "oversubscribed row note" `Quick test_oversubscribed_row_note;
          Alcotest.test_case "quick-flag mismatch note" `Quick
            test_quick_flag_mismatch_note;
          Alcotest.test_case "phase compressions gated exactly" `Quick
            test_phase_compressions;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "committed BENCH files read back" `Quick
            test_committed_artifacts;
        ] );
      ( "grid",
        [
          Alcotest.test_case "env provenance fields" `Quick
            test_env_provenance_fields;
        ] );
    ]
