(* The benchmark-matrix report pipeline and the bench-diff rules it
   leans on, tested on hand-built artifacts: Pareto-frontier membership
   (dominance semantics, report rendering), artifact parsing failure
   modes, and Bench_diff's full configuration-key matching — a grid
   change must read as coverage notes, never as a false regression —
   plus the [min_s] noise floor, the inverted [_bits] direction, and
   the env provenance cross-checks. *)

module Jsonx = Zkflow_util.Jsonx
module Matrix = Zkflow_core.Matrix
module Bench_diff = Zkflow_core.Bench_diff

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- fixtures ---------------------------------------------------- *)

(* One matrix row with the full configuration key and every measured
   field the report parser requires. *)
let row ?(backend = "receipt") ?(queries = 16) ?(records = 48) ?(routers = 2)
    ?(jobs = 1) ?(prove_s = 1.0) ?(verify_s = 0.01) ?(proof_bytes = 1000.)
    ?(bits = 1.0) ?(phases = [ ("stark.prove", 0.7); ("merkle.build", 0.2) ]) ()
    =
  Jsonx.Obj
    [
      ("backend", Jsonx.Str backend);
      ("queries", Jsonx.Num (float_of_int queries));
      ("records", Jsonx.Num (float_of_int records));
      ("routers", Jsonx.Num (float_of_int routers));
      ("jobs", Jsonx.Num (float_of_int jobs));
      ("agg_cycles", Jsonx.Num 12000.);
      ("exec_s", Jsonx.Num 0.01);
      ("prove_s", Jsonx.Num prove_s);
      ("verify_s", Jsonx.Num verify_s);
      ("proof_bytes", Jsonx.Num proof_bytes);
      ("journal_bytes", Jsonx.Num 904.);
      ("receipt_bytes", Jsonx.Num (proof_bytes +. 904.));
      ("soundness_bits", Jsonx.Num bits);
      ( "phases",
        Jsonx.Obj
          (List.map
             (fun (name, s) ->
               ( name,
                 Jsonx.Obj [ ("count", Jsonx.Num 1.); ("total_s", Jsonx.Num s) ]
               ))
             phases) );
      ("pool", Jsonx.Obj [ ("utilization", Jsonx.Num 0.5) ]);
    ]

let artifact ?(env = []) rows =
  Jsonx.Obj
    [
      ("schema", Jsonx.Str "zkflow-bench-matrix/v1");
      ("env", Jsonx.Obj env);
      ("rows", Jsonx.Arr rows);
    ]

let parse_rows doc =
  match Matrix.rows_of_artifact doc with
  | Ok rows -> rows
  | Error e -> Alcotest.failf "fixture does not parse: %s" e

(* ---- Pareto dominance -------------------------------------------- *)

(* The hand-built frontier fixture: five cells with membership decided
   by inspection.
     a: 1.0s / 1000B / 1.0 bits   — frontier
     b: 2.0s / 2000B / 1.0 bits   — dominated by [a] on two axes
     c: 2.0s /  256B / 1.0 bits   — frontier (cheapest bytes)
     d: 0.5s / 5000B / 4.0 bits   — frontier (fastest, most sound)
     e: 1.5s / 1500B / 0.5 bits   — dominated by [a] on all three *)
let frontier_fixture =
  artifact
    [
      row ~queries:8 ~prove_s:1.0 ~proof_bytes:1000. ~bits:1.0 ();
      row ~queries:16 ~prove_s:2.0 ~proof_bytes:2000. ~bits:1.0 ();
      row ~backend:"wrap" ~queries:16 ~prove_s:2.0 ~proof_bytes:256. ~bits:1.0
        ();
      row ~queries:48 ~prove_s:0.5 ~proof_bytes:5000. ~bits:4.0 ();
      row ~queries:24 ~prove_s:1.5 ~proof_bytes:1500. ~bits:0.5 ();
    ]

let test_dominates () =
  match parse_rows frontier_fixture with
  | [ a; b; _c; d; e ] ->
    check_bool "a dominates b" true (Matrix.dominates a b);
    check_bool "a dominates e" true (Matrix.dominates a e);
    check_bool "b does not dominate a" false (Matrix.dominates b a);
    (* trade-offs dominate in neither direction *)
    check_bool "a vs d" false (Matrix.dominates a d);
    check_bool "d vs a" false (Matrix.dominates d a);
    (* a row never dominates itself: nothing is strictly better *)
    check_bool "irreflexive" false (Matrix.dominates a a)
  | _ -> Alcotest.fail "fixture should have 5 rows"

let test_equal_rows_neither_dominates () =
  let doc =
    artifact [ row ~jobs:1 (); row ~jobs:2 () ]
    (* identical measurements, different config *)
  in
  match parse_rows doc with
  | [ a; b ] ->
    check_bool "a vs b" false (Matrix.dominates a b);
    check_bool "b vs a" false (Matrix.dominates b a);
    (* ...so both survive on the frontier *)
    let f = Matrix.frontier [ a; b ] in
    check_bool "both on frontier" true (List.for_all snd f)
  | _ -> Alcotest.fail "fixture should have 2 rows"

let test_frontier_membership () =
  let rows = parse_rows frontier_fixture in
  let flags = List.map snd (Matrix.frontier rows) in
  Alcotest.(check (list bool))
    "membership a..e" [ true; false; true; true; false ] flags

let test_frontier_singleton () =
  let rows = parse_rows (artifact [ row () ]) in
  Alcotest.(check (list bool)) "alone on frontier" [ true ]
    (List.map snd (Matrix.frontier rows))

(* ---- report rendering -------------------------------------------- *)

let test_report_markdown_frontier_table () =
  match Matrix.report_markdown frontier_fixture with
  | Error e -> Alcotest.failf "render failed: %s" e
  | Ok md ->
    check_bool "has matrix section" true (contains ~needle:"## Matrix" md);
    check_bool "has frontier section" true
      (contains ~needle:"## Pareto frontier" md);
    check_bool "counts dominated cells" true
      (contains ~needle:"2 of 5 cells are dominated" md);
    (* the dominated wrap-free cell is absent from the frontier table:
       only three frontier rows render after the frontier header *)
    let after =
      let marker = "## Pareto frontier" in
      let rec find i =
        if i + String.length marker > String.length md then md
        else if String.sub md i (String.length marker) = marker then
          String.sub md i (String.length md - i)
        else find (i + 1)
      in
      find 0
    in
    check_bool "frontier table keeps the 256B wrap cell" true
      (contains ~needle:"| wrap | 16 |" after);
    check_bool "frontier table drops the dominated 2000B cell" false
      (contains ~needle:"| receipt | 16 |" after)

let test_report_json_frontier_keys () =
  match Matrix.report_json frontier_fixture with
  | Error e -> Alcotest.failf "render failed: %s" e
  | Ok doc -> (
    (match Jsonx.member "cells" doc with
    | Some (Jsonx.Num n) -> check_int "cells" 5 (int_of_float n)
    | _ -> Alcotest.fail "no cells count");
    match Jsonx.member "frontier" doc with
    | Some (Jsonx.Arr keys) ->
      check_int "3 frontier cells" 3 (List.length keys);
      check_bool "names the wrap cell" true
        (List.mem
           (Jsonx.Str "backend=wrap queries=16 records=48 routers=2 jobs=1")
           keys)
    | _ -> Alcotest.fail "no frontier key list")

let test_rows_of_artifact_failures () =
  let err doc =
    match Matrix.rows_of_artifact doc with
    | Error e -> e
    | Ok _ -> Alcotest.fail "expected parse error"
  in
  check_bool "not an artifact" true
    (contains ~needle:"no \"rows\" array" (err (Jsonx.Obj [ ("x", Jsonx.Num 1.) ])));
  check_bool "empty rows" true
    (contains ~needle:"empty" (err (artifact [])));
  (* a row missing a measured field names the field *)
  let truncated =
    match row () with
    | Jsonx.Obj members ->
      Jsonx.Obj (List.filter (fun (k, _) -> k <> "soundness_bits") members)
    | _ -> assert false
  in
  check_bool "missing field named" true
    (contains ~needle:"soundness_bits" (err (artifact [ truncated ])))

(* ---- Bench_diff: configuration-key matching ---------------------- *)

let diff_exn ?threshold ?min_s old_json new_json =
  match Bench_diff.diff ?threshold ?min_s ~old_json ~new_json () with
  | Ok r -> r
  | Error e -> Alcotest.failf "diff failed: %s" e

let test_row_key_axes () =
  let key doc = Option.get (Bench_diff.row_key doc) in
  check_string "fig4 rows keep their single-axis key" "records=100"
    (key (Jsonx.Obj [ ("records", Jsonx.Num 100.); ("agg_prove_s", Jsonx.Num 1.) ]));
  check_string "par rows keep their single-axis key" "jobs=4"
    (key (Jsonx.Obj [ ("jobs", Jsonx.Num 4.); ("speedup", Jsonx.Num 2.) ]));
  check_string "matrix rows use the full configuration"
    "backend=wrap queries=16 records=48 routers=2 jobs=2"
    (key (row ~backend:"wrap" ~queries:16 ~records:48 ~routers:2 ~jobs:2 ()));
  Alcotest.(check (option string))
    "axis-free rows have no key" None
    (Bench_diff.row_key (Jsonx.Obj [ ("speedup", Jsonx.Num 2.) ]))

let test_matrix_rows_matched_by_config () =
  (* same grid, one cell's prove time regressed: the regression names
     that cell's full key and nothing else *)
  let old_doc =
    artifact [ row ~queries:8 ~prove_s:1.0 (); row ~queries:16 ~prove_s:1.0 () ]
  in
  let new_doc =
    artifact [ row ~queries:8 ~prove_s:1.0 (); row ~queries:16 ~prove_s:2.0 () ]
  in
  let r = diff_exn old_doc new_doc in
  check_bool "regressed" false (Bench_diff.ok r);
  check_int "one regression" 1 (List.length r.Bench_diff.regressions);
  let c = List.hd r.Bench_diff.regressions in
  check_string "full config key"
    "backend=receipt queries=16 records=48 routers=2 jobs=1" c.Bench_diff.key;
  check_string "field" "prove_s" c.Bench_diff.field

let test_mismatched_grids_are_notes () =
  (* the NEW artifact dropped the queries=8 cell and added queries=48:
     coverage drift on both sides, zero regressions *)
  let old_doc = artifact [ row ~queries:8 (); row ~queries:16 () ] in
  let new_doc = artifact [ row ~queries:16 (); row ~queries:48 () ] in
  let r = diff_exn old_doc new_doc in
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
  let old_doc =
    artifact [ row ~backend:"receipt" ~prove_s:1.0 (); row ~backend:"wrap" ~prove_s:1.0 () ]
  in
  let new_doc =
    artifact [ row ~backend:"receipt" ~prove_s:1.0 (); row ~backend:"wrap" ~prove_s:3.0 () ]
  in
  let r = diff_exn old_doc new_doc in
  check_int "one regression" 1 (List.length r.Bench_diff.regressions);
  check_bool "bills the wrap cell" true
    (contains ~needle:"backend=wrap" (List.hd r.Bench_diff.regressions).Bench_diff.key)

(* ---- Bench_diff: min_s floor, one-side fields, _bits direction --- *)

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
  check_int "improvement recorded" 1 (List.length r.Bench_diff.improvements)

let test_one_side_field_is_note () =
  let base = row () in
  let with_extra =
    match base with
    | Jsonx.Obj members -> Jsonx.Obj (("wrap_s", Jsonx.Num 0.2) :: members)
    | _ -> assert false
  in
  let r = diff_exn (artifact [ with_extra ]) (artifact [ base ]) in
  check_bool "no regression" true (Bench_diff.ok r);
  check_bool "field drop noted" true
    (List.exists (fun n -> contains ~needle:"wrap_s" n) r.Bench_diff.notes)

let test_bits_direction_inverted () =
  (* losing soundness bits is the regression... *)
  let r = diff_exn (artifact [ row ~bits:3.55 () ]) (artifact [ row ~bits:0.59 () ]) in
  check_bool "fewer bits regresses" false (Bench_diff.ok r);
  check_bool "names soundness_bits" true
    (List.exists
       (fun c -> c.Bench_diff.field = "soundness_bits")
       r.Bench_diff.regressions);
  (* ...and gaining them is the improvement, unlike every cost field *)
  let r = diff_exn (artifact [ row ~bits:0.59 () ]) (artifact [ row ~bits:3.55 () ]) in
  check_bool "more bits ok" true (Bench_diff.ok r);
  check_bool "counted as improvement" true
    (List.exists
       (fun c -> c.Bench_diff.field = "soundness_bits")
       r.Bench_diff.improvements)

(* Table 1 rows split the receipt into helper and leaf bytes; both
   are compared like every other [_bytes] field: more is a
   regression, less an improvement, with no timing floor. *)
let test_table1_helper_and_leaf_bytes () =
  let table1 ~helpers ~leaves =
    Jsonx.Obj
      [
        ( "rows",
          Jsonx.Arr
            [
              Jsonx.Obj
                [
                  ("records", Jsonx.Num 500.);
                  ("receipt_bytes", Jsonx.Num (helpers +. leaves +. 1000.));
                  ("helper_bytes", Jsonx.Num helpers);
                  ("leaf_bytes", Jsonx.Num leaves);
                ];
            ] );
      ]
  in
  let fields cs = List.sort compare (List.map (fun c -> c.Bench_diff.field) cs) in
  let r =
    diff_exn (table1 ~helpers:80_000. ~leaves:12_000.) (table1 ~helpers:160_000. ~leaves:6_000.)
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
  (* an artifact from before the field existed *)
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

let test_oversubscribed_note () =
  let with_jobs ~jobs ~cores =
    artifact
      ~env:
        (env ~commit:"aaa" ~dirty:false ~host:"h" ()
        @ [ ("zkflow_jobs", Jsonx.Num jobs); ("ncores", Jsonx.Num cores) ])
      [ row () ]
  in
  let notes a b =
    List.filter
      (fun n -> contains ~needle:"oversubscribed" n)
      (diff_exn a b).Bench_diff.notes
  in
  let honest = with_jobs ~jobs:1. ~cores:1. and over = with_jobs ~jobs:2. ~cores:1. in
  (* jobs = cores is honest, on either side *)
  check_int "no note at jobs = cores" 0
    (List.length (notes honest (with_jobs ~jobs:4. ~cores:4.)));
  (match notes over honest with
   | [ n ] -> check_bool "OLD side named" true (contains ~needle:"OLD artifact" n)
   | l -> Alcotest.failf "want one note for an oversubscribed OLD, got %d" (List.length l));
  (match notes honest over with
   | [ n ] ->
     check_bool "NEW side named" true (contains ~needle:"NEW artifact" n);
     check_bool "cites the counts" true (contains ~needle:"zkflow_jobs 2 > ncores 1" n)
   | l -> Alcotest.failf "want one note for an oversubscribed NEW, got %d" (List.length l));
  check_int "both sides noted" 2 (List.length (notes over over));
  (* a caveat, never a regression *)
  check_bool "still ok" true (Bench_diff.ok (diff_exn over over))

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

(* ---- live grid sanity -------------------------------------------- *)

let test_default_grids_shape () =
  let quick = Matrix.default_grid ~quick:true in
  let full = Matrix.default_grid ~quick:false in
  (* the acceptance floor for the CI quick grid *)
  check_bool ">=2 backends" true (List.length quick.Matrix.backends >= 2);
  check_bool ">=3 queries" true (List.length quick.Matrix.queries >= 3);
  check_bool ">=3 scales" true (List.length quick.Matrix.scales >= 3);
  check_bool "full widens the sweep" true
    (List.length full.Matrix.queries > List.length quick.Matrix.queries)

let test_env_provenance_fields () =
  let fields = Matrix.env_provenance () in
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

(* A tiny live run through the real prover: 1 backend pair × 1 queries
   × 1 scale, checking the measured invariants the report relies on. *)
let test_run_tiny_grid () =
  let grid =
    {
      Matrix.backends = [ Matrix.Receipt; Matrix.Wrap ];
      queries = [ 8 ];
      scales = [ { Matrix.records = 12; routers = 2; jobs = 1 } ];
    }
  in
  match Matrix.run grid with
  | Error e -> Alcotest.failf "run failed: %s" e
  | Ok cells -> (
    check_int "2 cells" 2 (List.length cells);
    let find b = List.find (fun c -> c.Matrix.backend = b) cells in
    let receipt = find Matrix.Receipt and wrap = find Matrix.Wrap in
    check_int "wrap proof is the constant 256B seal" 256 wrap.Matrix.proof_bytes;
    check_bool "receipt proof is larger" true
      (receipt.Matrix.proof_bytes > wrap.Matrix.proof_bytes);
    check_bool "same guest, same cycles" true
      (receipt.Matrix.cycles = wrap.Matrix.cycles);
    check_bool "wrap pays its cost on top of the inner prove" true
      (wrap.Matrix.prove_s >= receipt.Matrix.prove_s);
    check_bool "wrap inherits the inner soundness" true
      (receipt.Matrix.soundness_bits = wrap.Matrix.soundness_bits);
    check_bool "spans recorded" true (receipt.Matrix.phases <> []);
    (* the artifact the run writes parses back through the report path *)
    let doc =
      Matrix.to_json ~env:(Jsonx.Obj (Matrix.env_provenance ())) cells
    in
    match Matrix.report_markdown doc with
    | Error e -> Alcotest.failf "live artifact does not render: %s" e
    | Ok md -> check_bool "renders the matrix" true (contains ~needle:"## Matrix" md))

let () =
  Alcotest.run "zkflow_matrix"
    [
      ( "frontier",
        [
          Alcotest.test_case "dominance semantics" `Quick test_dominates;
          Alcotest.test_case "equal rows co-exist" `Quick
            test_equal_rows_neither_dominates;
          Alcotest.test_case "membership on the hand-built fixture" `Quick
            test_frontier_membership;
          Alcotest.test_case "singleton" `Quick test_frontier_singleton;
        ] );
      ( "report",
        [
          Alcotest.test_case "markdown frontier table" `Quick
            test_report_markdown_frontier_table;
          Alcotest.test_case "json frontier keys" `Quick
            test_report_json_frontier_keys;
          Alcotest.test_case "artifact parse failures" `Quick
            test_rows_of_artifact_failures;
        ] );
      ( "bench-diff keys",
        [
          Alcotest.test_case "row_key per artifact kind" `Quick test_row_key_axes;
          Alcotest.test_case "matrix rows matched by full config" `Quick
            test_matrix_rows_matched_by_config;
          Alcotest.test_case "grid changes are notes, not regressions" `Quick
            test_mismatched_grids_are_notes;
          Alcotest.test_case "backend separates otherwise-equal rows" `Quick
            test_backend_distinguishes_rows;
        ] );
      ( "bench-diff rules",
        [
          Alcotest.test_case "min_s floor boundary" `Quick test_min_s_floor_boundary;
          Alcotest.test_case "one-side field is a note" `Quick
            test_one_side_field_is_note;
          Alcotest.test_case "table1 helper and leaf bytes" `Quick
            test_table1_helper_and_leaf_bytes;
          Alcotest.test_case "_bits direction inverted" `Quick
            test_bits_direction_inverted;
          Alcotest.test_case "env provenance notes" `Quick test_env_provenance_notes;
          Alcotest.test_case "oversubscribed env note" `Quick test_oversubscribed_note;
          Alcotest.test_case "quick-flag mismatch note" `Quick
            test_quick_flag_mismatch_note;
        ] );
      ( "grid",
        [
          Alcotest.test_case "default grid shape" `Quick test_default_grids_shape;
          Alcotest.test_case "env provenance fields" `Quick
            test_env_provenance_fields;
          Alcotest.test_case "tiny live run" `Slow test_run_tiny_grid;
        ] );
    ]
