(* The live telemetry plane: routes the embedded HTTP server's three
   endpoints over either the in-process registries (a running prove)
   or saved run artifacts (a finished one). *)

module Event = Zkflow_obs.Event
module Timeseries = Zkflow_obs.Timeseries
module Export = Zkflow_obs.Export
module Httpd = Zkflow_obs.Httpd
module Jsonx = Zkflow_util.Jsonx

type source = {
  label : string;
  events : unit -> (Event.t list, string) result;
  frames : unit -> (Timeseries.frame list, string) result;
  metrics_text : unit -> string;
}

let live_source () =
  {
    label = "live";
    events = (fun () -> Ok (Event.events ()));
    frames = (fun () -> Ok (Timeseries.frames ()));
    metrics_text =
      (fun () ->
        Export.prometheus ()
        ^ Timeseries.prometheus_gauges (Timeseries.frames ()));
  }

let artifact_source ~events_path ?timeseries_path () =
  let load_frames () =
    match timeseries_path with
    | None -> Ok []
    | Some p -> Result.map fst (Timeseries.load_jsonl p)
  in
  {
    label = "artifact";
    events =
      (fun () ->
        match events_path with
        | None -> Ok []
        | Some p -> Result.map fst (Event.load_jsonl p));
    frames = load_frames;
    metrics_text =
      (fun () ->
        let frames = match load_frames () with Ok fs -> fs | Error _ -> [] in
        let registry =
          match List.rev frames with
          | [] -> ""
          | last :: _ ->
              Export.prometheus_of ~counters:last.Timeseries.counters
                ~histograms:last.Timeseries.histograms ~spans:[]
        in
        registry ^ Timeseries.prometheus_gauges frames);
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
      let frames =
        match source.frames () with Ok fs -> fs | Error _ -> []
      in
      let report = Monitor.build ~frames events in
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
  | "/metrics" ->
      Some
        {
          status = 200;
          content_type = "text/plain; version=0.0.4";
          body = source.metrics_text ();
        }
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
