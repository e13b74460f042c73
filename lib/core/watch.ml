(* The telemetry plane's routes, over either the in-process registries
   (the daemon [zkflow serve] runs) or a saved event log (a finished
   run). *)

module Event = Zkflow_obs.Event
module Export = Zkflow_obs.Export
module Httpd = Zkflow_obs.Httpd
module Jsonx = Zkflow_util.Jsonx

type source = {
  label : string;
  events : unit -> (Event.t list, string) result;
  metrics_text : unit -> (string, string) result;
}

let gc_gauges () =
  let gc = Gc.quick_stat () in
  String.concat ""
    (List.map
       (fun (name, v) ->
         Printf.sprintf "# TYPE zkflow_gc_%s gauge\nzkflow_gc_%s %s\n" name name v)
       [
         ("minor_words", Printf.sprintf "%.0f" gc.Gc.minor_words);
         ("major_words", Printf.sprintf "%.0f" gc.Gc.major_words);
         ("compactions", string_of_int gc.Gc.compactions);
         ("heap_words", string_of_int gc.Gc.heap_words);
       ])

let live_source () =
  {
    label = "live";
    events = (fun () -> Ok (Event.events ()));
    metrics_text = (fun () -> Ok (Export.prometheus () ^ gc_gauges ()));
  }

let event_counts events =
  let counts = Hashtbl.create 32 in
  List.iter
    (fun (e : Event.t) ->
      Hashtbl.replace counts e.Event.kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts e.Event.kind)))
    events;
  let lines =
    Hashtbl.fold (fun kind n acc -> (kind, n) :: acc) counts []
    |> List.sort compare
    |> List.map (fun (kind, n) ->
           Printf.sprintf "zkflow_events_total{kind=%s} %d\n" (Jsonx.quote kind) n)
  in
  String.concat "" ("# TYPE zkflow_events_total counter\n" :: lines)

let artifact_source ~events_path =
  let events () = Result.map fst (Event.load_jsonl events_path) in
  {
    label = "artifact";
    events;
    metrics_text = (fun () -> Result.map event_counts (events ()));
  }

let json status body : Httpd.response =
  { status; content_type = "application/json"; body = Jsonx.to_string body }

let unavailable err =
  json 503 (Jsonx.Obj [ ("error", Jsonx.Str err) ])

(* The report's verdict is {!Monitor.verdict} of the same events: 503
   when it is unhealthy, so a probe that reads only the status agrees
   with [monitor --strict] and [slo --strict]. *)
let healthz source =
  match source.events () with
  | Error e -> unavailable e
  | Ok events ->
      let report = Monitor.build events in
      let (v : Monitor.verdict) = report.Monitor.verdict in
      json
        (if v.healthy then 200 else 503)
        (Jsonx.Obj
           [
             ("schema", Jsonx.Str "zkflow-healthz/v1");
             ("source", Jsonx.Str source.label);
             ("healthy", Jsonx.Bool v.healthy);
             ("reasons", Jsonx.Arr (List.map (fun r -> Jsonx.Str r) v.reasons));
             ("report", Monitor.to_json report);
           ])

let slo source =
  match source.events () with
  | Error e -> unavailable e
  | Ok events -> json 200 (Slo.to_json (Slo.evaluate events))

let index : Httpd.response =
  json 200
    (Jsonx.Obj
       [
         ("schema", Jsonx.Str "zkflow-watch/v1");
         ( "endpoints",
           Jsonx.Arr
             [ Jsonx.Str "/metrics"; Jsonx.Str "/healthz"; Jsonx.Str "/slo" ]
         );
       ])

let handler source : Httpd.handler =
 fun req ->
  match req.Httpd.path with
  | "/" -> Some index
  | "/metrics" -> (
      match source.metrics_text () with
      | Error e -> Some (unavailable e)
      | Ok body ->
          Some { status = 200; content_type = "text/plain; version=0.0.4"; body })
  | "/healthz" -> Some (healthz source)
  | "/slo" -> Some (slo source)
  | _ -> None

let probe (h : Httpd.handler) target : Httpd.response =
  let req = Httpd.request_of_target target in
  match h req with
  | Some r -> r
  | None ->
      json 404
        (Jsonx.Obj
           [ ("error", Jsonx.Str "not found"); ("path", Jsonx.Str req.path) ])
