(** Regression detection over the bench JSON artifacts.

    [zkflow bench-diff OLD.json NEW.json] parses two artifacts written
    by the bench binary ([BENCH_fig4.json], [BENCH_table1.json],
    [BENCH_par.json], [BENCH_matrix.json]), matches their rows by the
    full configuration key — every sweep axis the row carries:
    [backend], [queries], [records], [routers], [jobs] — and compares
    every shared numeric field:

    - [*_s] wall-clock fields and per-phase [phases.<name>.total_s]
      totals regress when the new value exceeds the old by more than
      [threshold] (relative), with a [min_s] absolute floor so
      microsecond noise on tiny phases never fails a build;
    - [*_cycles] and [*_bytes] fields are deterministic outputs and
      use the ratio test with no floor — any drift beyond [threshold]
      is flagged;
    - [*_bits] fields (soundness) flip the direction: fewer bits in
      NEW is the regression, more is the improvement.

    Pool-utilization stats are skipped (machine-load dependent). Rows
    or fields present on one side only are reported as notes, not
    regressions — so a grid change (a new matrix cell, a dropped
    queries setting) reads as coverage drift, never as a false
    perf regression. The artifacts' [env] provenance blocks are also
    cross-checked: differing git commits, hostnames or SHA-256
    kernels, a dirty working tree, or mismatched quick-mode flags
    each add a note naming the cross-commit / cross-machine /
    cross-kernel caveat, and an artifact
    whose [zkflow_jobs] exceeds its [ncores] adds an oversubscription
    note. *)

val row_key : Zkflow_util.Jsonx.t -> string option
(** The full configuration key of one artifact row, e.g.
    ["records=1000"], ["jobs=4"], or
    ["backend=wrap queries=16 records=96 routers=4 jobs=2"]. [None]
    when the row carries no known axis. {!Matrix} reuses this for its
    report labels so the report and the diff name cells identically. *)

type change = {
  key : string;  (** row identity, as {!row_key} prints it *)
  field : string;  (** e.g. ["agg_prove_s"], ["phases.merkle.total_s"] *)
  old_v : float;
  new_v : float;
  ratio : float;  (** [new_v /. old_v] *)
}

type report = {
  compared : int;  (** numeric field pairs compared *)
  regressions : change list;
  improvements : change list;  (** moved beyond [threshold] in the good direction *)
  notes : string list;  (** rows/fields present on only one side *)
}

val diff :
  ?threshold:float ->
  ?min_s:float ->
  old_json:Zkflow_util.Jsonx.t ->
  new_json:Zkflow_util.Jsonx.t ->
  unit ->
  (report, string) result
(** Compare two bench artifacts. [threshold] defaults to [0.25] (25%
    relative), [min_s] to [0.05] seconds. [Error] only when an
    artifact has no recognizable [rows]/[sweep] array. *)

val ok : report -> bool
(** [true] iff no regressions. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> Zkflow_util.Jsonx.t
