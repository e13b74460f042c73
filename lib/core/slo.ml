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

(* One spec's view of the log: the timestamps of its good events and
   of its bad events, each ascending, so any window's count is two
   binary searches. *)
type tally = { good_ts : int array; bad_ts : int array }

(* The first index of the ascending [a] whose value is not below [x]
   (or above [x] when [strict]). *)
let rec bound ~strict (a : int array) (x : int) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) < x || (strict && a.(mid) = x) then bound ~strict a x (mid + 1) hi
    else bound ~strict a x lo mid

(* The timestamps in [\[from_ns, to_ns\]]. *)
let count_in ts ~from_ns ~to_ns =
  let n = Array.length ts in
  Int.max 0 (bound ~strict:true ts to_ns 0 n - bound ~strict:false ts from_ns 0 n)

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

let eval_window ~now_ns ~start_ns tally spec w =
  (* Short runs have less history than the window asks for; clamping
     to the log's own span keeps burn rates meaningful (the fraction
     is over what actually happened) instead of silently empty. *)
  let window_from span_s =
    max start_ns (now_ns - int_of_float (span_s *. 1e9))
  in
  let rate span_s =
    let from_ns = window_from span_s in
    let good = count_in tally.good_ts ~from_ns ~to_ns:now_ns in
    let bad = count_in tally.bad_ts ~from_ns ~to_ns:now_ns in
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

(* The first few bad events in log order: enough to name the
   culprits, bounded output. *)
let causes_of events spec =
  let rec go n acc = function
    | [] -> List.rev acc
    | _ when n = 8 -> List.rev acc
    | (e : Event.t) :: rest ->
      if matches_any spec.bad e.Event.kind then
        go (n + 1)
          ({
             cause_kind = e.Event.kind;
             cause_router = e.Event.router;
             cause_epoch = e.Event.epoch;
             cause_round = e.Event.round;
           }
          :: acc)
          rest
      else go n acc rest
  in
  go 0 [] events

let eval_spec ~now_ns ~start_ns events (spec, tally) =
  let window_evals = List.map (eval_window ~now_ns ~start_ns tally spec) spec.windows in
  let firing = List.exists (fun we -> we.w_firing) window_evals in
  {
    spec;
    good_count = count_in tally.good_ts ~from_ns:start_ns ~to_ns:now_ns;
    bad_count = count_in tally.bad_ts ~from_ns:start_ns ~to_ns:now_ns;
    window_evals;
    firing;
    causes = (if firing then causes_of events spec else []);
  }

(* Two ascending arrays as one. *)
let merge (a : int array) (b : int array) =
  let out = Array.make (Array.length a + Array.length b) 0 in
  let i = ref 0 and j = ref 0 in
  for k = 0 to Array.length out - 1 do
    if !j >= Array.length b || (!i < Array.length a && a.(!i) <= b.(!j)) then begin
      out.(k) <- a.(!i);
      incr i
    end
    else begin
      out.(k) <- b.(!j);
      incr j
    end
  done;
  out

(* Every spec's tally from one pass over the log: each event is filed
   under its kind, and the specs' patterns are matched once per
   distinct kind. A spec's timestamps are then the merge of the kinds
   it counts, all in unboxed arrays. *)
let tallies specs events =
  let ids = Hashtbl.create 64 and kinds = ref [] in
  let m = List.length events in
  let cls = Array.make m 0 and ts = Array.make m 0 in
  List.iteri
    (fun k (e : Event.t) ->
      let id =
        match Hashtbl.find_opt ids e.Event.kind with
        | Some id -> id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids e.Event.kind id;
          kinds := e.Event.kind :: !kinds;
          id
      in
      cls.(k) <- id;
      ts.(k) <- e.Event.ts_ns)
    events;
  let kinds = Array.of_list (List.rev !kinds) in
  (* The timestamps of kind [c] in log order: [filed.(start.(c)) ..
     filed.(start.(c + 1) - 1)]. *)
  let start = Array.make (Array.length kinds + 1) 0 in
  Array.iter (fun c -> start.(c + 1) <- start.(c + 1) + 1) cls;
  for c = 1 to Array.length kinds do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  let filed = Array.make m 0 and next = Array.sub start 0 (Array.length kinds) in
  Array.iteri
    (fun k c ->
      filed.(next.(c)) <- ts.(k);
      next.(c) <- next.(c) + 1)
    cls;
  (* A recorded log is already in time order, so the sort is skipped
     unless some timestamp goes back. *)
  let ascending (a : int array) =
    let rec sorted i = i >= Array.length a || (a.(i - 1) <= a.(i) && sorted (i + 1)) in
    if not (sorted 1) then Array.sort Int.compare a;
    a
  in
  let pick patterns =
    let parts = ref [||] in
    Array.iteri
      (fun c kind ->
        if matches_any patterns kind then
          parts := merge !parts (ascending (Array.sub filed start.(c) (start.(c + 1) - start.(c)))))
      kinds;
    !parts
  in
  List.map (fun spec -> (spec, { good_ts = pick spec.good; bad_ts = pick spec.bad })) specs

(* A gap is one bad outcome however often it is announced: a restart
   re-announces the gaps its last checkpoint row detected, and a
   skipped round's gap is detected again after a crash. Like the
   monitor, keep only the first ["prover.gap.open"] per (router,
   epoch), so a gap surviving restarts neither counts again nor
   lands a fresh bad event in a later burn window. *)
let first_gap_opens events =
  let seen = Hashtbl.create 16 in
  let fresh (e : Event.t) =
    match (e.Event.kind, e.Event.router, e.Event.epoch) with
    | "prover.gap.open", Some router, Some epoch ->
      let fresh = not (Hashtbl.mem seen (router, epoch)) in
      Hashtbl.replace seen (router, epoch) ();
      fresh
    | _ -> true
  in
  (* Most logs re-announce no gap: they are kept as they are. *)
  if List.for_all fresh events then events
  else begin
    Hashtbl.reset seen;
    List.filter fresh events
  end

let evaluate ?(specs = default_specs) events =
  let events = first_gap_opens events in
  let now_ns =
    List.fold_left (fun acc (e : Event.t) -> max acc e.Event.ts_ns) 0 events
  in
  let start_ns =
    List.fold_left (fun acc (e : Event.t) -> min acc e.Event.ts_ns) now_ns events
  in
  List.map (eval_spec ~now_ns ~start_ns events) (tallies specs events)

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
