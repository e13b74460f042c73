(** Hierarchical wall-clock spans.

    A span is opened with {!start} (which returns the raw monotonic
    timestamp as an unboxed [int] — 0 when telemetry is disabled) and
    closed with {!finish}, which records a completed event carrying
    the owning domain's id. Nesting is implicit: spans on the same
    domain that overlap in time render as a stack in Perfetto /
    [chrome://tracing], and {!events} exposes the per-domain parent
    index for programmatic consumers.

    Cost model: [start] is a branch plus (when enabled) one clock
    read; [finish] with [t0 = 0] is a branch. Sites that attach [args]
    should guard on [t0 <> 0] so the list is never allocated on the
    disabled path. *)

type evt = {
  name : string;
  ts_ns : int;    (** monotonic open timestamp *)
  dur_ns : int;
  tid : int;      (** recording domain id *)
  parent : int;   (** index into {!events} of the enclosing span on
                      the same domain, or [-1] at top level *)
  args : (string * int) list;
  compressions : int;
      (** [sha256.compressions] run on the span's behalf from open to
          close: by its domain, inner spans included, and by pool
          workers for the parallel regions it submitted ({!work}) *)
}

type total = {
  count : int;
  total_ns : int;
  compressions : int;  (** summed over the spans, as [total_ns] is *)
}

val start : unit -> int
(** Current monotonic time, or [0] while telemetry is disabled. It
    also notes the calling domain's {!work} on its stack of open
    spans, for {!finish} to take the span's share. *)

val finish : ?args:(string * int) list -> string -> int -> unit
(** [finish name t0] records a completed span opened at [t0]. A no-op
    when [t0 = 0] or telemetry has been disabled since. *)

val with_span : string -> (unit -> 'a) -> 'a
(** Scoped convenience for non-hot sites; exception-safe. *)

val events : unit -> evt list
(** Completed spans in chronological (open-time) order. *)

val totals : unit -> (string * total) list
(** Per-name aggregate over {!events}, sorted by name. Nested spans
    each contribute their full duration and compressions (a parent's
    total includes its children's). The compressions are the same at
    every job count. *)

val work : unit -> int
(** The [sha256.compressions] this domain has run, plus those handed
    to it by {!carry}: the count a span's compressions are taken
    from. *)

val carry : int -> unit
(** [carry n] hands this domain [n] compressions that another domain
    ran for it: a pool worker's share of a region this domain
    submitted. *)

val reset : unit -> unit
