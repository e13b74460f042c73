(** Regression detection over the bench artifacts.

    [zkflow bench-diff OLD.json NEW.json] reads two {!Bench_row}
    artifacts, matches their rows by {!Bench_row.key} — the row's
    whole config — and compares every metric of an OLD row that the
    NEW row also has, in the direction the OLD row declares: a metric
    regresses when it moved the worse way by more than [threshold]
    (relative), and improves when it moved the better way by as much.
    Per-phase totals compare as [phases.<name>.total_s] timings. A
    metric in unit [s] counts only when either side reaches [min_s],
    so microsecond noise on tiny phases never fails a build; every
    other unit (cycles, bytes, bits) is deterministic and has no
    floor.

    Rows or metrics present on one side only are notes, not
    regressions, so a grid change (a new matrix cell, a dropped
    queries setting) reads as coverage drift, never as a false
    regression. The [env] blocks are cross-checked too: differing git
    commits, hostnames or SHA-256 kernels, a dirty working tree, or
    mismatched quick-mode flags each add a note naming the caveat,
    and so does each row whose [jobs] exceeds its artifact's [ncores]
    (oversubscribed: its timings are not an honest baseline). *)

type change = {
  key : string;  (** row identity, as {!Bench_row.key} prints it *)
  field : string;  (** e.g. ["agg_prove_s"], ["phases.merkle.build.total_s"] *)
  old_v : float;
  new_v : float;
  ratio : float;  (** [new_v /. old_v] *)
}

type report = {
  compared : int;  (** metric pairs compared *)
  regressions : change list;
  improvements : change list;  (** moved beyond [threshold] in the better direction *)
  notes : string list;  (** provenance caveats, one-side rows and metrics *)
}

val diff :
  ?threshold:float ->
  ?min_s:float ->
  old_json:Zkflow_util.Jsonx.t ->
  new_json:Zkflow_util.Jsonx.t ->
  unit ->
  (report, string) result
(** Compare two bench artifacts. [threshold] defaults to [0.25] (25%
    relative), [min_s] to [0.05] seconds. [Error] when an artifact
    does not read as a {!Bench_row.artifact}, and when the two share
    no row key or no metric: a comparison of nothing is not a pass. *)

val ok : report -> bool
(** [true] iff no regressions. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> Zkflow_util.Jsonx.t
