(** File-backed write-ahead log: length-prefixed rows, replayable at
    startup. Gives {!Db} optional durability, standing in for the
    paper's PostgreSQL persistence, and backs the prover's per-round
    checkpoint journal. *)

type t

val open_log : string -> t
(** Opens (creating if needed) for appending. *)

val append : t -> bytes -> unit
val sync : t -> unit
(** Flush buffered rows and [fsync] the descriptor (best-effort on
    filesystems without fsync). A row is durable only after [sync]. *)

val close : t -> unit

val abandon : t -> unit
(** Simulate a crash: discard the channel's buffer and close the file
    descriptor, so rows appended since the last {!sync} are lost
    exactly as they would be when the process dies, and no later
    flush (the at-exit one included) can write them anywhere.
    Chaos/test support — a production shutdown wants {!close}. *)

val replay : string -> (bytes list, string) result
(** Reads every intact row; a torn tail (partial final row) is treated
    as a crash artifact and dropped, not an error. Missing file ⇒
    [Ok []]. *)

val rewrite : string -> bytes list -> unit
(** Atomically replace the log at [path] with exactly [rows]
    (write-temp-then-rename): recovery uses this to discard a corrupt
    suffix so later appends land after a clean prefix. *)

val write_file_atomic : ?fsync:bool -> string -> bytes -> unit
(** Crash-consistent whole-file write: write [path ^ ".tmp"], flush
    (+[fsync] unless disabled), then [Sys.rename] over [path] — a
    crash at any instant leaves either the old file or the new one,
    never a truncated hybrid. Passes the ["atomic.pre_rename"]
    crash site between the flush and the rename. *)
