module Event = Zkflow_obs.Event
module Metric = Zkflow_obs.Metric
module Jsonx = Zkflow_util.Jsonx

type latency = { count : int; p50_ns : int; p95_ns : int; p99_ns : int; max_ns : int }

type trend = {
  last_count : int;
  last_p95_ns : int;
  prev_count : int;
  prev_p95_ns : int;
  trend_ratio : float option;
}

type router_health = {
  router_id : int;
  publishes : int;
  last_epoch : int option;
  lag : int;
  missed : int list;
}

type gap_status = {
  gap_router : int;
  gap_epoch : int;
  opened_round : int;
  healed_round : int option;
}

type verdict = { healthy : bool; reasons : string list }

type report = {
  events : int;
  epochs : int list;
  routers : router_health list;
  board_rejects : (string * int) list;
  rounds_started : int;
  rounds_done : int;
  rounds_error : int;
  rounds_skipped : int;
  degraded_rounds : int;
  heal_rounds : int;
  round_latency : latency option;
  prove_latency : latency option;
  queue_depth : (int * int) list;
  max_queue_depth : int;
  queries_done : int;
  queries_error : int;
  verifier_accepts : int;
  verifier_rejects : (string * int) list;
  gaps : gap_status list;
  open_gap_count : int;
  crashes : int;
  resumes : int;
  retries : int;
  fault_events : (string * int) list;
  ingest_accepted : int;
  ingest_shed : int;
  ingest_duplicates : int;
  drains : int;
  breaker_opens : int;
  service_rounds : int option;
  service_entries : int option;
  service_root : string option;
  round_trend : trend option;
  verdict : verdict;
}

let attr_num name (e : Event.t) =
  match List.assoc_opt name e.Event.attrs with
  | Some (Jsonx.Num f) -> Some (int_of_float f)
  | _ -> None

let attr_str name (e : Event.t) =
  match List.assoc_opt name e.Event.attrs with
  | Some (Jsonx.Str s) -> Some s
  | _ -> None

let bump table key = Hashtbl.replace table key (1 + Option.value ~default:0 (Hashtbl.find_opt table key))

let counts_sorted table =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let latency_of_values = function
  | [] -> None
  | values ->
    let s = Metric.snapshot_of_values values in
    Some
      {
        count = s.Metric.count;
        p50_ns = Metric.percentile s 0.50;
        p95_ns = Metric.percentile s 0.95;
        p99_ns = Metric.percentile s 0.99;
        max_ns = s.Metric.max_value;
      }

(* The newer half of the done rounds' latencies, in log order, against
   the older half. *)
let trend_of_rounds latencies =
  let n = List.length latencies in
  if n < 2 then None
  else begin
    let older = List.filteri (fun i _ -> i < n / 2) latencies in
    let newer = List.filteri (fun i _ -> i >= n / 2) latencies in
    let p95 vs = Metric.percentile (Metric.snapshot_of_values vs) 0.95 in
    let prev_p95_ns = p95 older and last_p95_ns = p95 newer in
    Some
      {
        last_count = List.length newer;
        last_p95_ns;
        prev_count = List.length older;
        prev_p95_ns;
        trend_ratio =
          (if prev_p95_ns = 0 then None
           else Some (float_of_int last_p95_ns /. float_of_int prev_p95_ns));
      }
  end

(* The one health verdict. A reason is a firing default objective or
   a gauge read from the same log: a router behind or missing an
   epoch, a gap still open, a daemon crash with no restart after it,
   or a circuit breaker still open. Injected-fault markers never count
   by themselves; the objectives judge the pipeline's reaction. *)
let judge events ~routers ~open_gaps ~daemon_down ~breaker_open =
  let gauges =
    List.filter_map
      (fun (name, on) -> if on then Some name else None)
      [
        ("router-lag", List.exists (fun h -> h.lag > 0 || h.missed <> []) routers);
        ("open-gaps", open_gaps > 0);
        ("daemon-crashed", daemon_down);
        ("breaker-open", breaker_open);
      ]
  in
  let reasons = Slo.firing_names (Slo.evaluate events) @ gauges in
  { healthy = reasons = []; reasons }

let build ?service events =
  (* Fresh publications only — board replays are recorded under a
     different kind precisely so re-importing board.txt on every CLI
     invocation does not look like router liveness. *)
  let publishes : (int, int ref * (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  (* router -> (publish count, the epochs it published) *)
  let board_rejects = Hashtbl.create 8 in
  let verifier_rejects = Hashtbl.create 8 in
  let verifier_accepts = ref 0 in
  let rounds_started = ref 0 and rounds_done = ref 0 and rounds_error = ref 0 in
  let queries_done = ref 0 and queries_error = ref 0 in
  let round_start = Hashtbl.create 8 in
  (* round ix -> start ts *)
  let round_deltas = ref [] and prove_ns = ref [] and round_ns = ref [] in
  let queue_rev = ref [] in
  let rounds_skipped = ref 0 and degraded_rounds = ref 0 and heal_rounds = ref 0 in
  (* (router, epoch) -> gap_status; the first open wins, a heal marks it *)
  let gap_table : (int * int, gap_status) Hashtbl.t = Hashtbl.create 8 in
  let gap_order = ref [] in
  let crashes = ref 0 and resumes = ref 0 and retries = ref 0 in
  let fault_events = Hashtbl.create 8 in
  let ingest_accepted = ref 0 and ingest_shed = ref 0 in
  let ingest_duplicates = ref 0 in
  let drains = ref 0 and breaker_opens = ref 0 in
  let daemon_down = ref false and breaker_open = ref false in
  List.iter
    (fun (e : Event.t) ->
      match e.Event.kind with
      | "board.publish" -> (
        match (e.Event.router, e.Event.epoch) with
        | Some r, Some ep ->
          let n, mine =
            match Hashtbl.find_opt publishes r with
            | Some p -> p
            | None ->
              let p = (ref 0, Hashtbl.create 64) in
              Hashtbl.replace publishes r p;
              p
          in
          incr n;
          Hashtbl.replace mine ep ()
        | _ -> ())
      | "board.reject" ->
        bump board_rejects (Option.value ~default:"unknown" (attr_str "reason" e))
      | "prover.round.start" ->
        incr rounds_started;
        (match e.Event.round with
        | Some ix ->
          Hashtbl.replace round_start ix e.Event.ts_ns;
          (match attr_num "queue_depth" e with
          | Some d -> queue_rev := (ix, d) :: !queue_rev
          | None -> ())
        | None -> ())
      | "prover.round.done" ->
        incr rounds_done;
        (match e.Event.round with
        | Some ix -> (
          match Hashtbl.find_opt round_start ix with
          | Some t0 when e.Event.ts_ns >= t0 ->
            round_deltas := (e.Event.ts_ns - t0) :: !round_deltas
          | _ -> ())
        | None -> ());
        let prove = attr_num "prove_ns" e in
        Option.iter (fun ns -> prove_ns := ns :: !prove_ns) prove;
        (* what the [prover.round_ns] histogram observes *)
        (match (prove, attr_num "execute_ns" e) with
        | Some p, Some x -> round_ns := (p + x) :: !round_ns
        | _ -> ());
        (match attr_num "missing" e with
        | Some m when m > 0 -> incr degraded_rounds
        | _ -> ());
        (match attr_num "heal" e with
        | Some 1 -> incr heal_rounds
        | _ -> ())
      | "prover.round.error" -> incr rounds_error
      | "prover.round.skipped" -> incr rounds_skipped
      | "prover.gap.open" -> (
        match (e.Event.router, e.Event.epoch) with
        | Some r, Some ep ->
          if not (Hashtbl.mem gap_table (r, ep)) then begin
            Hashtbl.replace gap_table (r, ep)
              {
                gap_router = r;
                gap_epoch = ep;
                opened_round = Option.value ~default:0 e.Event.round;
                healed_round = None;
              };
            gap_order := (r, ep) :: !gap_order
          end
        | _ -> ())
      | "prover.gap.heal" -> (
        match (e.Event.router, e.Event.epoch) with
        | Some r, Some ep -> (
          match Hashtbl.find_opt gap_table (r, ep) with
          | Some g when g.healed_round = None ->
            Hashtbl.replace gap_table (r, ep) { g with healed_round = e.Event.round }
          | _ -> ())
        | _ -> ())
      | "prover.resume" -> incr resumes
      | "prover.query.done" -> incr queries_done
      | "prover.query.error" -> incr queries_error
      | "verifier.reject" ->
        bump verifier_rejects (Option.value ~default:"unknown" (attr_str "check" e))
      | "fault.crash" ->
        incr crashes;
        bump fault_events "fault.crash"
      | "fault.retry" ->
        incr retries;
        bump fault_events "fault.retry"
      (* daemon lifecycle: explicit cases, or the fault.* catch-all
         below would never see them and they'd vanish silently *)
      | "daemon.ingest.accept" -> incr ingest_accepted
      | "daemon.ingest.shed" -> incr ingest_shed
      | "daemon.ingest.duplicate" -> incr ingest_duplicates
      | "daemon.drain.done" -> incr drains
      | "daemon.breaker.open" ->
        incr breaker_opens;
        breaker_open := true
      | "daemon.breaker.half_open" | "daemon.breaker.close" -> breaker_open := false
      | "daemon.crash" -> daemon_down := true
      (* a fresh daemon is up with its breaker closed *)
      | "daemon.restart" | "daemon.start" ->
        daemon_down := false;
        breaker_open := false
      | k when String.length k > 9 && String.sub k 0 9 = "verifier."
               && Filename.check_suffix k ".accept" -> incr verifier_accepts
      | k when String.length k > 6 && String.sub k 0 6 = "fault." ->
        bump fault_events k
      | _ -> ())
    events;
  let epochs =
    Hashtbl.fold
      (fun _ (_, mine) acc -> Hashtbl.fold (fun ep () acc -> ep :: acc) mine acc)
      publishes []
    |> List.sort_uniq Int.compare
  in
  (* A router is in the table only once it has published. *)
  let routers =
    Hashtbl.fold
      (fun router_id (n, mine) acc ->
        let last = Hashtbl.fold (fun ep () acc -> max ep acc) mine min_int in
        let lag = List.length (List.filter (fun ep -> ep > last) epochs) in
        let missed = List.filter (fun ep -> ep <= last && not (Hashtbl.mem mine ep)) epochs in
        { router_id; publishes = !n; last_epoch = Some last; lag; missed } :: acc)
      publishes []
    |> List.sort (fun a b -> Int.compare a.router_id b.router_id)
  in
  let queue_depth = List.rev !queue_rev in
  let gaps =
    List.rev_map (fun key -> Hashtbl.find gap_table key) !gap_order
  in
  let open_gap_count = List.length (List.filter (fun g -> g.healed_round = None) gaps) in
  {
    events = List.length events;
    epochs;
    routers;
    board_rejects = counts_sorted board_rejects;
    rounds_started = !rounds_started;
    rounds_done = !rounds_done;
    rounds_error = !rounds_error;
    rounds_skipped = !rounds_skipped;
    degraded_rounds = !degraded_rounds;
    heal_rounds = !heal_rounds;
    round_latency = latency_of_values !round_deltas;
    prove_latency = latency_of_values !prove_ns;
    queue_depth;
    max_queue_depth = List.fold_left (fun acc (_, d) -> max acc d) 0 queue_depth;
    queries_done = !queries_done;
    queries_error = !queries_error;
    verifier_accepts = !verifier_accepts;
    verifier_rejects = counts_sorted verifier_rejects;
    gaps;
    open_gap_count;
    crashes = !crashes;
    resumes = !resumes;
    retries = !retries;
    fault_events = counts_sorted fault_events;
    ingest_accepted = !ingest_accepted;
    ingest_shed = !ingest_shed;
    ingest_duplicates = !ingest_duplicates;
    drains = !drains;
    breaker_opens = !breaker_opens;
    service_rounds = Option.map (fun s -> List.length (Prover_service.rounds s)) service;
    service_entries = Option.map (fun s -> Clog.length (Prover_service.clog s)) service;
    service_root =
      Option.map
        (fun s -> Zkflow_hash.Digest32.to_hex (Prover_service.latest_root s))
        service;
    round_trend = trend_of_rounds (List.rev !round_ns);
    verdict =
      judge events ~routers ~open_gaps:open_gap_count ~daemon_down:!daemon_down
        ~breaker_open:!breaker_open;
  }

let verdict events = (build events).verdict

let ms ns = float_of_int ns /. 1e6

let pp_latency fmt name = function
  | None -> Format.fprintf fmt "  %-14s (no samples)@," name
  | Some l ->
    Format.fprintf fmt "  %-14s n=%d  p50<=%.2fms  p95<=%.2fms  p99<=%.2fms  max=%.2fms@,"
      name l.count (ms l.p50_ns) (ms l.p95_ns) (ms l.p99_ns) (ms l.max_ns)

let pp fmt r =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "flight recorder: %d events, %d epoch(s) with publications@,"
    r.events (List.length r.epochs);
  (match (r.service_rounds, r.service_entries, r.service_root) with
  | Some n, Some entries, Some root ->
    Format.fprintf fmt "service state:  %d round(s), %d CLog entries, root %s@," n
      entries (String.sub root 0 (min 16 (String.length root)))
  | _ -> ());
  Format.fprintf fmt "@,routers:@,";
  if r.routers = [] then Format.fprintf fmt "  (no publications recorded)@,"
  else begin
    Format.fprintf fmt "  %8s %10s %10s %6s %s@," "router" "publishes" "last_epoch"
      "lag" "missed";
    List.iter
      (fun h ->
        Format.fprintf fmt "  %8d %10d %10s %6d %s@," h.router_id h.publishes
          (match h.last_epoch with Some ep -> string_of_int ep | None -> "-")
          h.lag
          (match h.missed with
          | [] -> "-"
          | m -> String.concat "," (List.map string_of_int m)))
      r.routers
  end;
  Format.fprintf fmt "@,prover:@,";
  Format.fprintf fmt "  rounds: %d started, %d done, %d error; queue depth max %d@,"
    r.rounds_started r.rounds_done r.rounds_error r.max_queue_depth;
  if r.degraded_rounds + r.heal_rounds + r.rounds_skipped > 0 then
    Format.fprintf fmt "  degraded: %d round(s), %d heal round(s), %d skipped@,"
      r.degraded_rounds r.heal_rounds r.rounds_skipped;
  if r.crashes + r.resumes > 0 then
    Format.fprintf fmt "  crashes: %d injected, %d resume(s), %d retry(ies)@,"
      r.crashes r.resumes r.retries;
  if r.ingest_accepted + r.ingest_shed + r.ingest_duplicates + r.drains > 0 then begin
    Format.fprintf fmt
      "  daemon ingest: %d accepted, %d shed, %d duplicate(s); %d drain(s)@,"
      r.ingest_accepted r.ingest_shed r.ingest_duplicates r.drains;
    if r.breaker_opens > 0 then
      Format.fprintf fmt "  daemon faults: breaker opened %d time(s)@," r.breaker_opens
  end;
  pp_latency fmt "round wall" r.round_latency;
  pp_latency fmt "prove phase" r.prove_latency;
  (match r.round_trend with
  | None -> ()
  | Some t ->
    Format.fprintf fmt "  %-14s last p95<=%.2fms (n=%d) vs prev p95<=%.2fms (n=%d)%s@,"
      "round trend" (ms t.last_p95_ns) t.last_count (ms t.prev_p95_ns) t.prev_count
      (match t.trend_ratio with
      | Some ratio -> Printf.sprintf "  ratio %.2fx" ratio
      | None -> ""));
  Format.fprintf fmt "  queries: %d done, %d error@," r.queries_done r.queries_error;
  if r.gaps <> [] then begin
    Format.fprintf fmt "@,gaps (%d open):@," r.open_gap_count;
    List.iter
      (fun g ->
        Format.fprintf fmt "  router %d epoch %d: opened round %d, %s@," g.gap_router
          g.gap_epoch g.opened_round
          (match g.healed_round with
          | Some ix -> Printf.sprintf "healed round %d" ix
          | None -> "OPEN"))
      r.gaps
  end;
  if r.fault_events <> [] then begin
    Format.fprintf fmt "@,injected faults:@,";
    List.iter
      (fun (kind, n) -> Format.fprintf fmt "  %s: %d@," kind n)
      r.fault_events
  end;
  Format.fprintf fmt "@,verifier:@,";
  Format.fprintf fmt "  accepts: %d@," r.verifier_accepts;
  if r.verifier_rejects = [] then Format.fprintf fmt "  rejects: none@,"
  else
    List.iter
      (fun (check, n) -> Format.fprintf fmt "  rejects[%s]: %d@," check n)
      r.verifier_rejects;
  if r.board_rejects <> [] then
    List.iter
      (fun (reason, n) -> Format.fprintf fmt "  board rejects[%s]: %d@," reason n)
      r.board_rejects;
  Format.fprintf fmt "@,health: %s@]"
    (if r.verdict.healthy then "OK"
     else "DEGRADED (" ^ String.concat ", " r.verdict.reasons ^ ")")

let latency_json = function
  | None -> Jsonx.Null
  | Some l ->
    Jsonx.Obj
      [
        ("count", Jsonx.Num (float_of_int l.count));
        ("p50_ns", Jsonx.Num (float_of_int l.p50_ns));
        ("p95_ns", Jsonx.Num (float_of_int l.p95_ns));
        ("p99_ns", Jsonx.Num (float_of_int l.p99_ns));
        ("max_ns", Jsonx.Num (float_of_int l.max_ns));
      ]

let counts_json pairs =
  Jsonx.Obj (List.map (fun (k, n) -> (k, Jsonx.Num (float_of_int n))) pairs)

let to_json r =
  let num n = Jsonx.Num (float_of_int n) in
  let opt_num = function Some n -> num n | None -> Jsonx.Null in
  Jsonx.Obj
    [
      ("events", num r.events);
      ("epochs", Jsonx.Arr (List.map num r.epochs));
      ( "routers",
        Jsonx.Arr
          (List.map
             (fun h ->
               Jsonx.Obj
                 [
                   ("router", num h.router_id);
                   ("publishes", num h.publishes);
                   ("last_epoch", opt_num h.last_epoch);
                   ("lag", num h.lag);
                   ("missed", Jsonx.Arr (List.map num h.missed));
                 ])
             r.routers) );
      ("board_rejects", counts_json r.board_rejects);
      ( "rounds",
        Jsonx.Obj
          [
            ("started", num r.rounds_started);
            ("done", num r.rounds_done);
            ("error", num r.rounds_error);
          ] );
      ("round_latency", latency_json r.round_latency);
      ("prove_latency", latency_json r.prove_latency);
      ( "round_latency_trend",
        match r.round_trend with
        | None -> Jsonx.Null
        | Some t ->
          Jsonx.Obj
            [
              ("metric", Jsonx.Str "prover.round_ns");
              ("last_count", num t.last_count);
              ("last_p95_ns", num t.last_p95_ns);
              ("prev_count", num t.prev_count);
              ("prev_p95_ns", num t.prev_p95_ns);
              ( "ratio",
                match t.trend_ratio with
                | Some ratio -> Jsonx.Num ratio
                | None -> Jsonx.Null );
            ] );
      ( "queue_depth",
        Jsonx.Arr
          (List.map
             (fun (ix, d) -> Jsonx.Obj [ ("round", num ix); ("depth", num d) ])
             r.queue_depth) );
      ("max_queue_depth", num r.max_queue_depth);
      ( "queries",
        Jsonx.Obj [ ("done", num r.queries_done); ("error", num r.queries_error) ] );
      ("verifier_accepts", num r.verifier_accepts);
      ("verifier_rejects", counts_json r.verifier_rejects);
      ( "degraded",
        Jsonx.Obj
          [
            ("rounds", num r.degraded_rounds);
            ("heal_rounds", num r.heal_rounds);
            ("skipped", num r.rounds_skipped);
          ] );
      ( "gaps",
        Jsonx.Arr
          (List.map
             (fun g ->
               Jsonx.Obj
                 [
                   ("router", num g.gap_router);
                   ("epoch", num g.gap_epoch);
                   ("opened_round", num g.opened_round);
                   ("healed_round", opt_num g.healed_round);
                 ])
             r.gaps) );
      ("open_gaps", num r.open_gap_count);
      ( "chaos",
        Jsonx.Obj
          [
            ("crashes", num r.crashes);
            ("resumes", num r.resumes);
            ("retries", num r.retries);
            ("fault_events", counts_json r.fault_events);
          ] );
      ( "daemon",
        Jsonx.Obj
          [
            ("ingest_accepted", num r.ingest_accepted);
            ("ingest_shed", num r.ingest_shed);
            ("ingest_duplicates", num r.ingest_duplicates);
            ("drains", num r.drains);
            ("breaker_opens", num r.breaker_opens);
          ] );
      ("service_rounds", opt_num r.service_rounds);
      ("service_entries", opt_num r.service_entries);
      ( "service_root",
        match r.service_root with Some s -> Jsonx.Str s | None -> Jsonx.Null );
      ("healthy", Jsonx.Bool r.verdict.healthy);
      ("reasons", Jsonx.Arr (List.map (fun s -> Jsonx.Str s) r.verdict.reasons));
    ]
