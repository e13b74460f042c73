let on = Control.on
let enable () = Control.set true
let disable () = Control.set false

let reset () =
  Metric.reset_all ();
  Span.reset ();
  Event.reset ()

let with_enabled f =
  reset ();
  enable ();
  Fun.protect ~finally:disable f

let write_trace path =
  let oc = open_out path in
  output_string oc (Export.trace_json ());
  output_char oc '\n';
  close_out oc

let write_events ?append path = Event.write_jsonl ?append path

let span_totals_s () =
  List.map
    (fun (name, (t : Span.total)) -> (name, (t.count, Clock.ns_to_s t.total_ns)))
    (Span.totals ())
