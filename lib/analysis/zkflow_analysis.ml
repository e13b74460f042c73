module Finding = Finding
module Cfg = Cfg
module Dataflow = Dataflow
module Interval = Interval
module Zr0_checks = Zr0_checks
module Zirc_lint = Zirc_lint
module Taint = Taint
module Program = Zkflow_zkvm.Program
module Obs = Zkflow_obs

let c_findings = Obs.Metric.counter "analysis.findings"
let c_errors = Obs.Metric.counter "analysis.errors"
let c_trusted = Obs.Metric.counter "analysis.trusted_suppressed"

let record_pass name f =
  let t0 = Obs.Span.start () in
  let r = f () in
  Obs.Span.finish ("analysis." ^ name) t0;
  r

let record_report (r : Finding.report) =
  Obs.Metric.add c_findings (List.length r.Finding.findings);
  Obs.Metric.add c_errors (List.length (Finding.errors r));
  r

let check ?subject (program : Program.t) =
  record_report
    (record_pass "zr0" (fun () ->
         Zr0_checks.analyze ?subject (Program.instrs program)))

let check_instrs ?subject instrs =
  record_report
    (record_pass "zr0" (fun () -> Zr0_checks.analyze ?subject instrs))

let check_zirc ?(subject = "zirc program") ?positions prog =
  let lint = record_pass "lint" (fun () -> Zirc_lint.lint ?positions prog) in
  record_report
    (match Zkflow_lang.Zirc.compile prog with
    | Error msg ->
      {
        Finding.subject;
        instrs = 0;
        blocks = 0;
        findings = lint @ [ Finding.error ~pass:"compile" "%s" msg ];
        proven_safe = false;
      }
    | Ok program ->
      let r =
        record_pass "zr0" (fun () ->
            Zr0_checks.analyze ~subject (Program.instrs program))
      in
      { r with Finding.findings = lint @ r.Finding.findings })

(* ------------------------------------------------------------------ *)
(* Audit: the full pipeline (value analysis + taint), surfaced by
   [zkflow audit]. Kept separate from [check]/[gate] so adopting the
   audit cannot change which guests prove. *)

let audit ?subject (instrs : Zkflow_zkvm.Isa.t array) =
  let r =
    record_pass "zr0" (fun () -> Zr0_checks.analyze ?subject instrs)
  in
  let taint = record_pass "taint-zr0" (fun () -> Taint.check_zr0 instrs) in
  record_report
    {
      r with
      Finding.findings = Finding.normalize (r.Finding.findings @ taint);
    }

let audit_zirc ?(subject = "zirc program") ?positions prog =
  let lint = record_pass "lint" (fun () -> Zirc_lint.lint ?positions prog) in
  let taint, suppressed =
    record_pass "taint-zirc" (fun () -> Taint.check_zirc ?positions prog)
  in
  Obs.Metric.add c_trusted suppressed;
  record_report
    (match Zkflow_lang.Zirc.compile prog with
    | Error msg ->
      {
        Finding.subject;
        instrs = 0;
        blocks = 0;
        findings =
          Finding.normalize
            (lint @ taint @ [ Finding.error ~pass:"compile" "%s" msg ]);
        proven_safe = false;
      }
    | Ok program ->
      let r =
        record_pass "zr0" (fun () ->
            Zr0_checks.analyze ~subject (Program.instrs program))
      in
      (* The compiler lowers [halt] mid-block, leaving structurally
         dead ZR0 tails that are not source defects; the source-level
         [zirc-unreachable] lint covers real ones. *)
      let zr0_findings =
        List.filter
          (fun (f : Finding.t) -> f.Finding.pass <> "unreachable")
          r.Finding.findings
      in
      {
        r with
        Finding.findings = Finding.normalize (lint @ taint @ zr0_findings);
      })

let gate ?subject program =
  let r = check ?subject program in
  match Finding.errors r with
  | [] -> Ok ()
  | errs ->
    Error
      (Format.asprintf "refusing to prove %s: static analysis found %d defect(s)@\n%a"
         r.Finding.subject (List.length errs)
         (Format.pp_print_list Finding.pp_finding)
         errs)
