(** Analyzer findings and per-program reports.

    A {e finding} is one defect or advisory located in a guest program;
    a {e report} is everything one analyzer run learned about one
    program. [Error]-severity findings make {!Zkflow_analysis.gate}
    refuse a program that arrives from outside; [Warning]s are advisory
    only, so the two built-in guests lint clean by construction. *)

type severity = Error | Warning

type loc =
  | Pc of int                          (** ZR0 instruction index *)
  | Src of { line : int; col : int }   (** Zirc source position *)
  | Stmt of int list                   (** Zirc statement path, outermost first *)
  | Nowhere

type t = {
  severity : severity;
  pass : string;     (** which check produced it, e.g. "uninit" *)
  loc : loc;
  message : string;
}

type report = {
  subject : string;
  instrs : int;
  blocks : int;
  findings : t list;
  proven_safe : bool;
      (** all memory/sha accesses and ecall numbers proven in-range and
          no indirect jumps: together with zero errors, the only traps
          the machine can raise are input exhaustion and the cycle
          limit (the property the differential fuzzer checks) *)
}

val error :
  ?loc:loc -> pass:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val warning :
  ?loc:loc -> pass:string -> ('a, Format.formatter, unit, t) format4 -> 'a

val compare_finding : t -> t -> int
(** Canonical order: location (source first, then pc, then none), then
    pass, severity, message. *)

val normalize : t list -> t list
(** Sort into canonical order and drop exact duplicates; every surface
    (text, JSON, SARIF, CI baseline) emits findings in this order. *)

val errors : report -> t list
val warnings : report -> t list

val ok : report -> bool
(** No [Error]-severity findings ([Warning]s allowed). *)

val severity_name : severity -> string
val loc_string : loc -> string
val pp_finding : Format.formatter -> t -> unit

val pp_report : Format.formatter -> report -> unit
(** The human-readable block [zkflow lint] prints. *)

val report_json : report -> string
(** One JSON object per report; dependency-free encoder. *)

val reports_json : report list -> string
(** [{"reports":[...]}] — the `--json` envelope shared by lint and
    audit. *)

val sarif_json : report list -> string
(** SARIF 2.1.0 log (one run; subjects as artifact URIs) for
    `zkflow lint --sarif` / `zkflow audit --sarif` and the CI audit
    job's artifact upload. *)
