(** Proof-backend benchmark matrix (DESIGN.md §14).

    One fixed workload — a single aggregation round over freshly
    generated router batches — run across a configuration grid:

    - {b backend}: the full spot-check receipt (publicly verifiable,
      size grows with queries · log cycles) vs. the designated-verifier
      256-byte wrap (Table 1's constant "Proof" column);
    - {b proof parameters}: the {!Zkflow_zkproof.Params.queries}
      spot-check sweep (further axes — LDE blowup, hash variant — slot
      into the same row schema when those knobs land);
    - {b scale}: records × routers × Domain-pool jobs.

    Every cell carries prove/verify wall time, the per-phase span
    breakdown ({!Zkflow_obs}), proof/journal/receipt bytes and the
    computed soundness bits, so any two configurations — and any two
    PRs, via [zkflow bench-diff] — are comparable on the
    cost/soundness frontier. The report half of this module renders a
    [BENCH_matrix.json] artifact into markdown or JSON, including the
    Pareto frontier: cells not dominated on
    (prove time, proof bytes, soundness bits). *)

type backend = Receipt | Wrap

val backend_name : backend -> string
(** ["receipt"] / ["wrap"] — the [backend] field of a matrix row. *)

type scale = { records : int; routers : int; jobs : int }

type grid = {
  backends : backend list;
  queries : int list;
  scales : scale list;
}

val default_grid : quick:bool -> grid
(** Quick mode: 2 backends × 3 queries settings × 3 scales (the CI
    grid); full mode widens the queries sweep and the scales. *)

type cell = {
  backend : backend;
  queries : int;
  scale : scale;
  cycles : int;
  exec_s : float;
  prove_s : float;   (** wrap cells: inner prove + wrap (which re-verifies) *)
  verify_s : float;  (** full receipt check, or the O(1) MAC check *)
  proof_bytes : int; (** encoded seal, or the constant 256-byte wrap seal *)
  journal_bytes : int;
  receipt_bytes : int; (** full encoded artifact a verifier receives *)
  soundness_bits : float;
  phases : (string * (int * float)) list; (** span name -> count, total s *)
  pool : Zkflow_parallel.Pool.stats;
}

val run : ?log:(string -> unit) -> grid -> (cell list, string) result
(** Run the whole grid. One proving run per (queries, scale) pair —
    the wrap backend reuses the inner receipt, as a deployment would,
    and pays its wrap cost on top. The commit cache is cleared before
    every pair so each cell's prove time is the cold cost. Restores
    the Domain-pool job count afterwards. *)

val to_json : env:Zkflow_util.Jsonx.t -> cell list -> Zkflow_util.Jsonx.t
(** The [BENCH_matrix.json] artifact: [{"schema"; "env"; "rows"}] with
    one row per cell, keyed for {!Bench_diff} by its full
    configuration (backend + queries + records + routers + jobs). *)

val phases_json : (string * (int * float)) list -> Zkflow_util.Jsonx.t
(** Serialize an {!Zkflow_obs.Obs.span_totals_s} snapshot the way
    every bench artifact embeds it ([name -> {count; total_s}]). *)

val pool_json : Zkflow_parallel.Pool.stats -> Zkflow_util.Jsonx.t
(** Serialize Domain-pool stats for an artifact row. *)

val env_provenance : unit -> (string * Zkflow_util.Jsonx.t) list
(** Provenance fields every bench artifact's [env] block embeds:
    [git_commit] (short hash, ["unknown"] outside a repo),
    [git_dirty], [hostname] and [sha256_kernel]
    ({!Zkflow_hash.Sha256.kernel}) — what {!Bench_diff.diff} checks
    before comparing two artifacts (EXPERIMENTS.md, provenance). *)

(** {2 Reports}

    The report side works from the parsed artifact, not from live
    cells, so [zkflow report] renders any committed or CI-produced
    [BENCH_matrix.json] and tests can assert frontier membership on
    hand-built fixtures. *)

type row = {
  key : string;  (** full configuration key, as {!Bench_diff} prints it *)
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
  r_phases : (string * float) list; (** span name -> total s, largest first *)
}

val rows_of_artifact : Zkflow_util.Jsonx.t -> (row list, string) result
(** Parse a [BENCH_matrix.json] document. [Error _] when the document
    has no [rows] array or a row lacks one of the configuration axes
    or measured fields. *)

val dominates : row -> row -> bool
(** [dominates a b]: [a] is no worse than [b] on all three frontier
    objectives — prove time (lower), proof bytes (lower), soundness
    bits (higher) — and strictly better on at least one. *)

val frontier : row list -> (row * bool) list
(** Pareto-frontier membership per row, input order preserved: [true]
    iff no other row dominates it. *)

val report_markdown : Zkflow_util.Jsonx.t -> (string, string) result
(** Render the artifact as the generated [REPORT.md]: provenance
    header, the full matrix table with frontier marks, the frontier
    table sorted by prove time, and the per-cell phase breakdown. *)

val report_json : Zkflow_util.Jsonx.t -> (Zkflow_util.Jsonx.t, string) result
(** Machine-readable report: rows with a [frontier] flag plus the
    frontier keys, for dashboards and tests. *)
