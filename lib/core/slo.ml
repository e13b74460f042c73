module Event = Zkflow_obs.Event
module Jsonx = Zkflow_util.Jsonx

type window = {
  w_name : string;
  long_s : float;
  short_s : float;
  burn_threshold : float;
}

type spec = {
  slo_name : string;
  good : string list;
  bad : string list;
  target : float;
  windows : window list;
}

type window_eval = {
  window : window;
  long_burn : float;
  short_burn : float;
  w_firing : bool;
}

type cause = {
  cause_kind : string;
  cause_router : int option;
  cause_epoch : int option;
  cause_round : int option;
}

type alert = {
  spec : spec;
  good_count : int;
  bad_count : int;
  window_evals : window_eval list;
  firing : bool;
  causes : cause list;
}

(* SRE-canonical multi-window multi-burn-rate pairs: the fast pair
   (1 h long, 5 m short) catches a budget burning 14.4x too fast —
   i.e. the whole 30-day budget inside ~2 days — within minutes; the
   slow pair (6 h long, 30 m short) catches a 6x slow bleed. The short
   window is the de-bounce: both windows must burn, so an alert stops
   firing minutes after the cause does. *)
let default_windows =
  [
    { w_name = "fast"; long_s = 3600.; short_s = 300.; burn_threshold = 14.4 };
    { w_name = "slow"; long_s = 21600.; short_s = 1800.; burn_threshold = 6.0 };
  ]

(* Glob match on event kinds: '*' crosses any substring, so
   "verifier.*.accept" covers every per-check accept kind. The first
   segment is anchored at the start, the last at the end, the middle
   ones must appear in order in between. *)
let kind_matches pattern kind =
  match String.split_on_char '*' pattern with
  | [ exact ] -> exact = kind
  | segs ->
    let klen = String.length kind in
    let rec go first idx = function
      | [] -> true
      | [ seg ] ->
        let sl = String.length seg in
        klen - sl >= idx
        && String.sub kind (klen - sl) sl = seg
        && (not first || sl = klen)
      | seg :: rest ->
        let sl = String.length seg in
        if first then
          klen >= sl && String.sub kind 0 sl = seg && go false sl rest
        else begin
          let rec find j =
            if j + sl > klen then None
            else if String.sub kind j sl = seg then Some (j + sl)
            else find (j + 1)
          in
          match find idx with None -> false | Some j -> go false j rest
        end
    in
    go true 0 segs

let matches_any patterns kind = List.exists (fun p -> kind_matches p kind) patterns

(* The default objectives ladder one spec onto each failure surface
   the flight recorder distinguishes; all judge symptoms (what the
   pipeline did), never the injected-fault markers themselves, so they
   hold for production logs that contain no "fault.*" events at all. *)
let default_specs =
  [
    {
      slo_name = "coverage";
      good = [ "board.publish" ];
      bad = [ "prover.gap.open" ];
      target = 0.999;
      windows = default_windows;
    };
    {
      slo_name = "board-integrity";
      good = [ "board.publish" ];
      bad = [ "board.reject" ];
      target = 0.999;
      windows = default_windows;
    };
    {
      slo_name = "prover-errors";
      good = [ "prover.round.done"; "prover.query.done" ];
      bad = [ "prover.round.error"; "prover.query.error" ];
      target = 0.999;
      windows = default_windows;
    };
    {
      slo_name = "prover-restarts";
      good = [ "prover.round.done" ];
      bad = [ "prover.resume" ];
      target = 0.999;
      windows = default_windows;
    };
    {
      slo_name = "verifier-acceptance";
      good = [ "verifier.*.accept" ];
      bad = [ "verifier.reject" ];
      target = 0.999;
      windows = default_windows;
    };
    {
      slo_name = "ingest-admission";
      (* A duplicate (a window re-offered after a restart) consumes no
         queue capacity and loses no data: only a shed is bad. *)
      good = [ "daemon.ingest.accept" ];
      bad = [ "daemon.ingest.shed" ];
      target = 0.999;
      windows = default_windows;
    };
  ]

(* ---- evaluation ---- *)

let count_in events ~from_ns ~to_ns patterns =
  List.fold_left
    (fun acc (e : Event.t) ->
      if e.Event.ts_ns >= from_ns && e.Event.ts_ns <= to_ns
         && matches_any patterns e.Event.kind
      then acc + 1
      else acc)
    0 events

(* burn = bad_fraction / error_budget. With target 0.999 the budget is
   0.001: one bad event per thousand good ones is burn 1.0 (exactly
   sustainable); a 10% bad fraction is burn 100. No traffic in the
   window means nothing burned. *)
let burn_rate ~target ~good ~bad =
  let total = good + bad in
  if total = 0 then 0.
  else
    let bad_fraction = float_of_int bad /. float_of_int total in
    let budget = 1. -. target in
    if budget <= 0. then if bad > 0 then infinity else 0.
    else bad_fraction /. budget

let eval_window ~now_ns ~start_ns events spec w =
  (* Short runs have less history than the window asks for; clamping
     to the log's own span keeps burn rates meaningful (the fraction
     is over what actually happened) instead of silently empty. *)
  let window_from span_s =
    max start_ns (now_ns - int_of_float (span_s *. 1e9))
  in
  let rate span_s =
    let from_ns = window_from span_s in
    let good = count_in events ~from_ns ~to_ns:now_ns spec.good in
    let bad = count_in events ~from_ns ~to_ns:now_ns spec.bad in
    burn_rate ~target:spec.target ~good ~bad
  in
  let long_burn = rate w.long_s in
  let short_burn = rate w.short_s in
  {
    window = w;
    long_burn;
    short_burn;
    w_firing = long_burn >= w.burn_threshold && short_burn >= w.burn_threshold;
  }

let causes_of events spec =
  let all =
    List.filter_map
      (fun (e : Event.t) ->
        if matches_any spec.bad e.Event.kind then
          Some
            {
              cause_kind = e.Event.kind;
              cause_router = e.Event.router;
              cause_epoch = e.Event.epoch;
              cause_round = e.Event.round;
            }
        else None)
      events
  in
  (* Keep the first few: enough to name the culprits, bounded output. *)
  List.filteri (fun i _ -> i < 8) all

let eval_spec ~now_ns ~start_ns events spec =
  let window_evals = List.map (eval_window ~now_ns ~start_ns events spec) spec.windows in
  let firing = List.exists (fun we -> we.w_firing) window_evals in
  {
    spec;
    good_count = count_in events ~from_ns:start_ns ~to_ns:now_ns spec.good;
    bad_count = count_in events ~from_ns:start_ns ~to_ns:now_ns spec.bad;
    window_evals;
    firing;
    causes = (if firing then causes_of events spec else []);
  }

(* A gap is one bad outcome however often it is announced: a restart
   re-announces the gaps its last checkpoint row detected, and a
   skipped round's gap is detected again after a crash. Like the
   monitor, keep only the first ["prover.gap.open"] per (router,
   epoch), so a gap surviving restarts neither counts again nor
   lands a fresh bad event in a later burn window. *)
let first_gap_opens events =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (e : Event.t) ->
      match (e.Event.kind, e.Event.router, e.Event.epoch) with
      | "prover.gap.open", Some router, Some epoch ->
        let fresh = not (Hashtbl.mem seen (router, epoch)) in
        Hashtbl.replace seen (router, epoch) ();
        fresh
      | _ -> true)
    events

let evaluate ?(specs = default_specs) events =
  let events = first_gap_opens events in
  let now_ns =
    List.fold_left (fun acc (e : Event.t) -> max acc e.Event.ts_ns) 0 events
  in
  let start_ns =
    List.fold_left (fun acc (e : Event.t) -> min acc e.Event.ts_ns) now_ns events
  in
  List.map (eval_spec ~now_ns ~start_ns events) specs

let firing alerts = List.filter (fun a -> a.firing) alerts
let firing_names alerts = List.map (fun a -> a.spec.slo_name) (firing alerts)

(* ---- what a chaos plan should trip ----

   Injected data faults map onto the objective that watches the
   surface they wound: destroyed/stalled exports open coverage gaps,
   duplicates provoke board rejects, crashes force prover resumes.
   Derived from the fault events the run actually emitted (not the
   plan), so a fault that never hit a live window is not expected to
   fire anything. *)
let expected_for events =
  let expected =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.kind with
        | "fault.drop" | "fault.delay" -> Some "coverage"
        | "fault.duplicate" -> Some "board-integrity"
        | "fault.crash" -> Some "prover-restarts"
        | "fault.flood" -> Some "ingest-admission"
        | _ -> None)
      events
  in
  List.sort_uniq String.compare expected

(* ---- parsing specs from JSON ---- *)

let num_field k v =
  match Jsonx.member k v with Some (Jsonx.Num f) -> Some f | _ -> None

let str_list_field k v =
  match Jsonx.member k v with
  | Some (Jsonx.Arr l) ->
    Some (List.filter_map (function Jsonx.Str s -> Some s | _ -> None) l)
  | _ -> None

let window_of_json v =
  match
    (Jsonx.member "name" v, num_field "long_s" v, num_field "short_s" v, num_field "burn" v)
  with
  | Some (Jsonx.Str w_name), Some long_s, Some short_s, Some burn_threshold ->
    Ok { w_name; long_s; short_s; burn_threshold }
  | _ -> Error "slo: window needs name, long_s, short_s, burn"

let spec_of_json v =
  match (Jsonx.member "name" v, str_list_field "good" v, str_list_field "bad" v) with
  | Some (Jsonx.Str slo_name), Some good, Some bad ->
    let target = Option.value ~default:0.999 (num_field "target" v) in
    if target <= 0. || target >= 1. then
      Error (Printf.sprintf "slo: %s: target must be in (0,1)" slo_name)
    else
      let windows =
        match Jsonx.member "windows" v with
        | Some (Jsonx.Arr ws) ->
          List.fold_left
            (fun acc w ->
              match (acc, window_of_json w) with
              | Ok ws, Ok w -> Ok (w :: ws)
              | (Error _ as e), _ -> e
              | _, (Error _ as e) -> e)
            (Ok []) ws
          |> Result.map List.rev
        | None -> Ok default_windows
        | Some _ -> Error "slo: windows must be an array"
      in
      Result.map
        (fun windows -> { slo_name; good; bad; target; windows })
        windows
  | _ -> Error "slo: spec needs string name and good/bad kind arrays"

let load_specs path =
  if not (Sys.file_exists path) then Error (path ^ ": not found")
  else begin
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Jsonx.parse text with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok (Jsonx.Arr specs) ->
      List.fold_left
        (fun acc v ->
          match (acc, spec_of_json v) with
          | Ok ss, Ok s -> Ok (s :: ss)
          | (Error _ as e), _ -> e
          | _, Error e -> Error (Printf.sprintf "%s: %s" path e))
        (Ok []) specs
      |> Result.map List.rev
    | Ok _ -> Error (path ^ ": expected a JSON array of SLO specs")
  end

(* ---- rendering ---- *)

let cause_json c =
  let opt k v = Option.map (fun n -> (k, Jsonx.Num (float_of_int n))) v in
  Jsonx.Obj
    (("kind", Jsonx.Str c.cause_kind)
    :: List.filter_map Fun.id
         [ opt "router" c.cause_router; opt "epoch" c.cause_epoch; opt "round" c.cause_round ])

let alert_json a =
  let num n = Jsonx.Num n in
  Jsonx.Obj
    [
      ("name", Jsonx.Str a.spec.slo_name);
      ("target", num a.spec.target);
      ("good", num (float_of_int a.good_count));
      ("bad", num (float_of_int a.bad_count));
      ( "windows",
        Jsonx.Arr
          (List.map
             (fun we ->
               Jsonx.Obj
                 [
                   ("name", Jsonx.Str we.window.w_name);
                   ("long_s", num we.window.long_s);
                   ("short_s", num we.window.short_s);
                   ("threshold", num we.window.burn_threshold);
                   ("long_burn", num we.long_burn);
                   ("short_burn", num we.short_burn);
                   ("firing", Jsonx.Bool we.w_firing);
                 ])
             a.window_evals) );
      ("firing", Jsonx.Bool a.firing);
      ("causes", Jsonx.Arr (List.map cause_json a.causes));
    ]

let to_json alerts =
  Jsonx.Obj
    [
      ("schema", Jsonx.Str "zkflow-slo/v1");
      ("alerts", Jsonx.Arr (List.map alert_json alerts));
      ("firing", Jsonx.Arr (List.map (fun n -> Jsonx.Str n) (firing_names alerts)));
      ("ok", Jsonx.Bool (firing alerts = []));
    ]

let pp fmt alerts =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun a ->
      Format.fprintf fmt "%-20s target %.4f  good %d  bad %d  %s@," a.spec.slo_name
        a.spec.target a.good_count a.bad_count
        (if a.firing then "FIRING" else "ok");
      List.iter
        (fun we ->
          Format.fprintf fmt "  %-6s burn long %.1f / short %.1f (threshold %.1f)%s@,"
            we.window.w_name we.long_burn we.short_burn we.window.burn_threshold
            (if we.w_firing then "  <- firing" else ""))
        a.window_evals;
      List.iter
        (fun c ->
          Format.fprintf fmt "  cause: %s%s%s%s@," c.cause_kind
            (match c.cause_router with Some r -> Printf.sprintf " router=%d" r | None -> "")
            (match c.cause_epoch with Some e -> Printf.sprintf " epoch=%d" e | None -> "")
            (match c.cause_round with Some r -> Printf.sprintf " round=%d" r | None -> ""))
        a.causes)
    alerts;
  Format.fprintf fmt "slo: %s@]"
    (match firing_names alerts with
    | [] -> "all objectives met"
    | names -> "FIRING: " ^ String.concat ", " names)
