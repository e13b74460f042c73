(** The one row schema of every bench artifact.

    Every [BENCH_*.json] the bench binary writes (fig4, table1, queries,
    par, ablations, obs) is an {!artifact}: an [env] provenance block and
    a list of rows. A row is one configuration of one benchmark:

    - [config]: the axes that identify it ([records], [backend],
      [jobs], ...), integers or strings, in the order the key prints
      them. Every row records its [jobs].
    - [metrics]: what was measured, each with its unit and the
      direction that is better — the shape perfbench prints and
      BENCHMARK.json declares.
    - [phases]: the {!Zkflow_obs.Obs.span_totals_s} snapshot of the
      run, span name to [(count, total seconds)].

    This module holds the only JSON writer and reader of rows, and
    the provenance every artifact's [env] block embeds; {!Bench_diff}
    keys rows by {!key}. *)

type better = Lower | Higher

type metric = { value : float; unit : string; better : better }

type axis = Int of int | Str of string

type row = {
  config : (string * axis) list;
  metrics : (string * metric) list;
  phases : (string * (int * float)) list;
}

type artifact = { env : (string * Zkflow_util.Jsonx.t) list; rows : row list }

val schema : string
(** ["zkflow-bench/v1"], the tag every artifact carries. *)

val seconds : float -> metric
(** Unit [s], lower is better. *)

val count : int -> metric
(** Unit [count], lower is better: cycles, node counts. *)

val bytes : int -> metric
(** Unit [bytes], lower is better. *)

val bits : float -> metric
(** Unit [bits], higher is better: soundness. *)

val axis_string : axis -> string

val key : row -> string
(** The row's identity: its config as ["name=value"] pairs in order,
    e.g. ["shape=ingest queries=48 prove_batch=40 verify_batch=1500 jobs=1"]. *)

val metric : row -> string -> float option
(** The value of the named metric, if the row has it. *)

val to_json : artifact -> Zkflow_util.Jsonx.t

val of_json : Zkflow_util.Jsonx.t -> (artifact, string) result
(** Read an artifact. [Error] names what is missing or malformed: the
    [schema] tag, the [env] object, the [rows] array, or a row's
    [config], [metrics] or [phases]. *)

val write : string -> artifact -> unit
(** Write the artifact's JSON to a path, one line. *)

val env_provenance : unit -> (string * Zkflow_util.Jsonx.t) list
(** Provenance fields every bench artifact's [env] block embeds:
    [git_commit] (short hash, ["unknown"] outside a repo),
    [git_dirty], [hostname] and [sha256_kernel]
    ({!Zkflow_hash.Sha256.kernel}): what {!Bench_diff.diff} checks
    before comparing two artifacts (EXPERIMENTS.md, provenance). *)
