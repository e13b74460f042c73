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
(** Quick mode: 2 backends × 3 queries settings × 3 scales; full
    mode, the committed baseline, widens the queries sweep and the
    scales. Neither grid runs more than 2 pool jobs in a cell. *)

val run : ?log:(string -> unit) -> grid -> (Bench_row.row list, string) result
(** Run the whole grid, one row per cell: config [backend], [queries],
    [records], [routers], [jobs]; metrics [agg_cycles], [exec_s],
    [prove_s] (wrap cells: inner prove + wrap, which re-verifies),
    [verify_s] (full receipt check, or the O(1) MAC check),
    [proof_bytes] (encoded seal, or the constant 256-byte wrap seal),
    [journal_bytes], [receipt_bytes] (the full artifact a verifier
    receives) and [soundness_bits]; the span breakdown as phases. One
    proving run per (queries, scale) pair — the wrap backend reuses
    the inner receipt, as a deployment would, and pays its wrap cost
    on top. Every cell proves a fresh run, so its prove time is the
    cold cost. Restores the Domain-pool job
    count afterwards. *)

val env_provenance : unit -> (string * Zkflow_util.Jsonx.t) list
(** Provenance fields every bench artifact's [env] block embeds:
    [git_commit] (short hash, ["unknown"] outside a repo),
    [git_dirty], [hostname] and [sha256_kernel]
    ({!Zkflow_hash.Sha256.kernel}) — what {!Bench_diff.diff} checks
    before comparing two artifacts (EXPERIMENTS.md, provenance). *)

(** {2 Reports}

    The report side works from a read artifact, not from live runs, so
    [zkflow report] renders any committed or CI-produced
    [BENCH_matrix.json] and tests can assert frontier membership on
    hand-built fixtures. It needs every row to carry the five config
    axes and eight metrics {!run} writes, and refuses a row without
    one by name. *)

val dominates : Bench_row.row -> Bench_row.row -> bool
(** [dominates a b]: [a] is no worse than [b] on all three frontier
    objectives — [prove_s] (lower), [proof_bytes] (lower),
    [soundness_bits] (higher) — and strictly better on at least one. *)

val frontier : Bench_row.row list -> (Bench_row.row * bool) list
(** Pareto-frontier membership per row, input order preserved: [true]
    iff no other row dominates it. *)

val report_markdown : Bench_row.artifact -> (string, string) result
(** Render the artifact as the generated [REPORT.md]: provenance
    header, the full matrix table with frontier marks, the frontier
    table sorted by prove time, and the per-cell phase breakdown. *)

val report_json : Bench_row.artifact -> (Zkflow_util.Jsonx.t, string) result
(** Machine-readable report: [{"artifact"; "frontier"}], the artifact
    as read plus the frontier rows' keys sorted by prove time. *)
