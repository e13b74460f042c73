module Jsonx = Zkflow_util.Jsonx

let args_json args =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (Jsonx.quote k) v) args)
  ^ "}"

let trace_json () =
  let evts = Span.events () in
  let t0 = List.fold_left (fun acc e -> min acc e.Span.ts_ns) max_int evts in
  let event e =
    let base =
      Printf.sprintf
        {|{"name":%s,"cat":"zkflow","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d|}
        (Jsonx.quote e.Span.name)
        (Clock.ns_to_us (e.Span.ts_ns - t0))
        (Clock.ns_to_us e.Span.dur_ns)
        e.Span.tid
    in
    match e.Span.args with
    | [] -> base ^ "}"
    | args -> base ^ ",\"args\":" ^ args_json args ^ "}"
  in
  "[\n" ^ String.concat ",\n" (List.map event evts) ^ "\n]"

(* Prometheus metric names: [a-zA-Z0-9_:]; everything else becomes an
   underscore and the zkflow_ prefix namespaces us. *)
let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let prometheus () =
  let spans = Span.totals () in
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = "zkflow_" ^ sanitize name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (Metric.counters ());
  List.iter
    (fun (name, (s : Metric.histogram_snapshot)) ->
      let n = "zkflow_" ^ sanitize name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      List.iter
        (fun (le, cum) ->
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n le cum))
        s.Metric.buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n s.Metric.count);
      Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n s.Metric.sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n s.Metric.count);
      (* Summary-style quantile estimates so a scrape sees tail
         latency directly, not just raw bucket counts. *)
      List.iter
        (fun q ->
          Buffer.add_string b
            (Printf.sprintf "%s{quantile=\"%g\"} %d\n" n q
               (Metric.percentile s q)))
        [ 0.5; 0.95; 0.99 ])
    (Metric.histograms ());
  if spans <> [] then begin
    Buffer.add_string b "# TYPE zkflow_span_seconds_total counter\n";
    List.iter
      (fun (name, (_, total_ns)) ->
        Buffer.add_string b
          (Printf.sprintf "zkflow_span_seconds_total{span=\"%s\"} %.6f\n"
             (sanitize name) (Clock.ns_to_s total_ns)))
      spans;
    Buffer.add_string b "# TYPE zkflow_span_count_total counter\n";
    List.iter
      (fun (name, (count, _)) ->
        Buffer.add_string b
          (Printf.sprintf "zkflow_span_count_total{span=\"%s\"} %d\n"
             (sanitize name) count))
      spans
  end;
  Buffer.contents b

let stats_json () =
  let counters =
    String.concat ","
      (List.map
         (fun (name, v) -> Printf.sprintf "%s:%d" (Jsonx.quote name) v)
         (Metric.counters ()))
  in
  let histograms =
    String.concat ","
      (List.map
         (fun (name, (s : Metric.histogram_snapshot)) ->
           Printf.sprintf
             "%s:{\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%d,\"p95\":%d,\"p99\":%d,\"buckets\":[%s]}"
             (Jsonx.quote name) s.Metric.count s.Metric.sum s.Metric.max_value
             (Metric.percentile s 0.5) (Metric.percentile s 0.95)
             (Metric.percentile s 0.99)
             (String.concat ","
                (List.map
                   (fun (le, cum) -> Printf.sprintf "[%d,%d]" le cum)
                   s.Metric.buckets)))
         (Metric.histograms ()))
  in
  let spans =
    String.concat ","
      (List.map
         (fun (name, (count, total_ns)) ->
           Printf.sprintf "%s:{\"count\":%d,\"total_s\":%.6f}" (Jsonx.quote name)
             count (Clock.ns_to_s total_ns))
         (Span.totals ()))
  in
  Printf.sprintf {|{"counters":{%s},"histograms":{%s},"spans":{%s}}|} counters
    histograms spans
