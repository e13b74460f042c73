(** What is left of the proof-backend matrix: one re-export.

    The end-to-end benchmark (perfbench/perfbench.ml) still reads its
    provenance block through this name. perfbench/ is the benchmark's
    own code and changes only with the benchmark, so the name stays
    until then (ROADMAP item 4, "Next change to the benchmark's own
    files"). Everything else calls {!Bench_row.env_provenance}. *)

val env_provenance : unit -> (string * Zkflow_util.Jsonx.t) list
(** {!Bench_row.env_provenance}. *)
