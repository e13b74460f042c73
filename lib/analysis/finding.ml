type severity = Error | Warning

type loc =
  | Pc of int                          (* ZR0 instruction index *)
  | Src of { line : int; col : int }   (* Zirc source position *)
  | Stmt of int list                   (* Zirc statement path (no source) *)
  | Nowhere

type t = {
  severity : severity;
  pass : string;
  loc : loc;
  message : string;
}

type report = {
  subject : string;
  instrs : int;
  blocks : int;
  findings : t list;
  proven_safe : bool;
    (* every memory access, sha range and ecall number proven in-range
       and no indirect jumps: with zero errors, the only traps left are
       input exhaustion and the cycle limit *)
}

let error ?(loc = Nowhere) ~pass fmt =
  Format.kasprintf (fun message -> { severity = Error; pass; loc; message }) fmt

let warning ?(loc = Nowhere) ~pass fmt =
  Format.kasprintf (fun message -> { severity = Warning; pass; loc; message }) fmt

(* Canonical finding order: position (source locations first, then
   instruction indices, then location-free), then pass, severity and
   message. Every consumer — text, JSON, SARIF, the CI baseline — sees
   the same stable order, and exact duplicates (e.g. the same defect
   reported via two merged paths) collapse to one. *)
let loc_rank = function
  | Src { line; col } -> (0, line, col)
  | Stmt path -> (1, (match path with p :: _ -> p | [] -> 0), List.length path)
  | Pc pc -> (2, pc, 0)
  | Nowhere -> (3, 0, 0)

let compare_finding a b =
  let c = compare (loc_rank a.loc) (loc_rank b.loc) in
  if c <> 0 then c
  else
    let c = String.compare a.pass b.pass in
    if c <> 0 then c
    else
      let c = compare a.severity b.severity in
      if c <> 0 then c else String.compare a.message b.message

let normalize findings =
  let rec dedupe = function
    | a :: b :: rest when a = b -> dedupe (b :: rest)
    | a :: rest -> a :: dedupe rest
    | [] -> []
  in
  dedupe (List.sort compare_finding findings)

let errors report = List.filter (fun f -> f.severity = Error) report.findings
let warnings report = List.filter (fun f -> f.severity = Warning) report.findings
let ok report = errors report = []

let severity_name = function Error -> "error" | Warning -> "warning"

let loc_string = function
  | Pc pc -> Printf.sprintf "pc %d" pc
  | Src { line; col } -> Printf.sprintf "%d:%d" line col
  | Stmt path -> Printf.sprintf "stmt %s" (String.concat "." (List.map string_of_int path))
  | Nowhere -> "-"

let pp_finding ppf f =
  Format.fprintf ppf "%s [%s] %s: %s" (severity_name f.severity) f.pass
    (loc_string f.loc) f.message

let pp_report ppf r =
  Format.fprintf ppf "== %s ==@." r.subject;
  Format.fprintf ppf "  %d instruction(s), %d basic block(s)@." r.instrs r.blocks;
  List.iter (fun f -> Format.fprintf ppf "  %a@." pp_finding f) r.findings;
  Format.fprintf ppf "  %d error(s), %d warning(s)@."
    (List.length (errors r)) (List.length (warnings r))

(* JSON emission for `zkflow lint --json`; escaping is the shared
   Zkflow_util.Jsonx helper so every machine-readable output in the
   tree escapes identically. *)
let json_escape = Zkflow_util.Jsonx.escape

let finding_json f =
  Printf.sprintf {|{"severity":"%s","pass":"%s","loc":"%s","message":"%s"}|}
    (severity_name f.severity) (json_escape f.pass)
    (json_escape (loc_string f.loc)) (json_escape f.message)

let report_json r =
  Printf.sprintf
    {|{"subject":"%s","instrs":%d,"blocks":%d,"errors":%d,"warnings":%d,"proven_safe":%b,"findings":[%s]}|}
    (json_escape r.subject) r.instrs r.blocks
    (List.length (errors r)) (List.length (warnings r)) r.proven_safe
    (String.concat "," (List.map finding_json r.findings))

let reports_json rs =
  Printf.sprintf {|{"reports":[%s]}|} (String.concat "," (List.map report_json rs))

(* ---- SARIF 2.1.0 ----

   One run per invocation; each report's subject becomes the artifact
   URI. ZR0 program counters have no source region, so they ride in the
   message and a logical location instead. Shared by `zkflow lint
   --sarif` and `zkflow audit --sarif`, and uploaded by the CI audit
   job. *)

let sarif_level = function Error -> "error" | Warning -> "warning"

let sarif_result subject f =
  let region =
    match f.loc with
    | Src { line; col } ->
      Printf.sprintf {|,"region":{"startLine":%d,"startColumn":%d}|} line col
    | _ -> ""
  in
  let logical =
    match f.loc with
    | Src _ -> ""
    | loc ->
      Printf.sprintf {|,"logicalLocations":[{"name":"%s"}]|} (json_escape (loc_string loc))
  in
  Printf.sprintf
    {|{"ruleId":"%s","level":"%s","message":{"text":"%s"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"%s"}%s}%s}]}|}
    (json_escape f.pass) (sarif_level f.severity)
    (json_escape (Printf.sprintf "[%s] %s" (loc_string f.loc) f.message))
    (json_escape subject) region logical

let sarif_json reports =
  let rules =
    List.concat_map (fun r -> List.map (fun f -> f.pass) r.findings) reports
    |> List.sort_uniq String.compare
    |> List.map (fun p -> Printf.sprintf {|{"id":"%s"}|} (json_escape p))
  in
  let results =
    List.concat_map (fun r -> List.map (sarif_result r.subject) r.findings) reports
  in
  Printf.sprintf
    {|{"version":"2.1.0","$schema":"https://json.schemastore.org/sarif-2.1.0.json","runs":[{"tool":{"driver":{"name":"zkflow-audit","informationUri":"https://example.org/zkflow","rules":[%s]}},"results":[%s]}]}|}
    (String.concat "," rules)
    (String.concat "," results)
