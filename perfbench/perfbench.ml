(* End-to-end benchmark of the resident daemon (see perfbench/README.md).

   One process: the harness thread plus the daemon's worker thread, no
   sockets, no sampler or watchdog thread. The harness reaches every
   layer through public calls only: it feeds seeded router exports to
   [Daemon.submit_wait], releases epochs with [Daemon.advance] and
   [Daemon.await_idle], asks [Daemon.query] / [Daemon.query_flows], and
   checks every answer as a client would ([Verifier_client]) against
   the public board. Board and rounds are read only while the worker is
   idle.

   End-to-end timings are scaled to a reference host speed by a
   calibration kernel run next to every op ([Calib]).

   With [--trace] the same run records telemetry: the harness opens a
   span around each public call it makes (op id in the span args, the
   op span as the parent), snapshots counters and span totals at op
   boundaries, and splits each op's time into per-layer self times.

   The last stdout line is one JSON object; exit 1 on a wrong output,
   2 on a usage or set-up error. *)

module D = Zkflow_hash.Digest32
module Record = Zkflow_netflow.Record
module Flowkey = Zkflow_netflow.Flowkey
module Gen = Zkflow_netflow.Gen
module Rng = Zkflow_util.Rng
module Jsonx = Zkflow_util.Jsonx
module Db = Zkflow_store.Db
module Epoch = Zkflow_store.Epoch
module Board = Zkflow_commitlog.Board
module Receipt = Zkflow_zkproof.Receipt
module Params = Zkflow_zkproof.Params
module Obs = Zkflow_obs.Obs
module Span = Zkflow_obs.Span
module Metric = Zkflow_obs.Metric
module Clock = Zkflow_obs.Clock
module Pool = Zkflow_parallel.Pool
open Zkflow_core

let ( let* ) = Result.bind

(* ---- workloads and sizes ---- *)

type workload = Ingest_steady | Audit

let workload_of_string = function
  | "ingest-steady" -> Some Ingest_steady
  | "audit" -> Some Audit
  | _ -> None

let workload_name = function
  | Ingest_steady -> "ingest-steady"
  | Audit -> "audit"

type sizes = {
  flows : int;  (** flow population introduced by the first epoch *)
  per_router : int;  (** records in one router's window *)
  warmup : int;  (** epochs proved during set-up *)
  period_s : float;  (** ingest-steady: epoch period *)
  op_s : float;  (** nominal op time: a run makes [seconds / op_s] ops *)
}

(* Sized so that a 40-second run yields at least 40 ops on a 2-vCPU
   host. On ingest-steady a round plus its verification takes about
   0.5 s of the 1 s period, so the prover is about half busy, and its
   memory log (15162 entries) sits just below the 16384 padding
   boundary. *)
let sizes = function
  | Ingest_steady -> { flows = 16; per_router = 2; warmup = 2; period_s = 1.0; op_s = 1.0 }
  | Audit -> { flows = 16; per_router = 2; warmup = 4; period_s = 0.; op_s = 0.45 }

let routers = 4
let all_routers = List.init routers Fun.id
let policy = Epoch.default
let config = Daemon.default_config
let proof_params = Params.default

(* ---- seeded router exports ---- *)

let record rng ~router_id ~epoch key =
  let start = Epoch.start_ms policy epoch in
  let packets = 1 + Rng.int rng 1000 in
  Record.make ~key ~first_ts:start
    ~last_ts:(start + 1 + Rng.int rng (policy.Epoch.interval_ms - 2))
    ~router_id
    {
      Record.packets;
      bytes = packets * (64 + Rng.int rng 1400);
      hop_count = 1 + Rng.int rng 8;
      losses = Rng.int rng (1 + (packets / 100));
    }

(* [k] distinct Zipf-popular indices of [0, n). *)
let zipf_pick rng ~n ~k =
  let chosen = Hashtbl.create 16 in
  let out = ref [] in
  while List.length !out < min k n do
    let i = Rng.zipf rng ~n ~s:1.1 - 1 in
    if not (Hashtbl.mem chosen i) then begin
      Hashtbl.replace chosen i ();
      out := i :: !out
    end
  done;
  List.rev !out

(* [windows.(epoch).(router)]. Epoch 0 introduces the [s.flows] flows,
   split across the routers; every later window updates [s.per_router]
   Zipf-popular flows, so the CLog keeps one size and every round costs
   the same. *)
let gen_windows ~seed s ~epochs =
  let rng = Rng.create (Int64.of_int (0x9e3779b9 + seed)) in
  let pop = Gen.flows rng { Gen.default_profile with flow_count = s.flows } in
  Array.init epochs (fun epoch ->
      Array.init routers (fun router_id ->
          let flows =
            if epoch = 0 then
              List.filter (fun i -> i mod routers = router_id) (List.init s.flows Fun.id)
            else zipf_pick rng ~n:s.flows ~k:s.per_router
          in
          List.map (fun i -> record rng ~router_id ~epoch pop.(i)) flows))

let epoch_records windows epoch =
  Array.concat (Array.to_list (Array.map Array.of_list windows.(epoch)))

(* ---- clock, spans, percentiles ---- *)

let now = Clock.now_ns
let secs ns = float_of_int ns /. 1e9

let sleep_until ns =
  let d = ns - now () in
  if d > 0 then Thread.delay (secs d)

(* A harness span around one public call; free when tracing is off. *)
let span ?(args = []) ~op name f =
  let t0 = Span.start () in
  let r = f () in
  if t0 <> 0 then Span.finish ~args:(("op", op) :: args) name t0;
  r

(* Nearest rank: at 40 samples p75 leaves ten samples above it. *)
let percentile p = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median = percentile 0.5
let sum = List.fold_left ( +. ) 0.
let fsum f l = sum (List.map f l)

(* ---- the daemon under test and the client's view of it ---- *)

type st = {
  d : Daemon.t;
  board : Board.t;
  ckpt : string;
  mutable root : D.t;  (** last round root the client verified *)
  mutable verified : int;  (** rounds verified so far *)
  mutable chain : (int * Receipt.t) list;  (** verified rounds, newest first *)
  mutable covered : int list;  (** epochs of verified rounds, newest first *)
  mutable submits : int list;  (** ns inside [submit_wait], per window *)
}

let start_daemon ~dir ~seed =
  let db = Db.create ~epoch:policy () in
  let board = Board.create () in
  let ckpt = Filename.concat dir "ckpt.wal" in
  (try Sys.remove ckpt with Sys_error _ -> ());
  match Daemon.create ~config ~proof_params ~seed ~db ~board ~ckpt_path:ckpt () with
  | Error e -> Error ("daemon create: " ^ e)
  | Ok (_, n) when n > 0 -> Error "daemon restored rounds from a fresh directory"
  | Ok (d, _) ->
    Ok
      { d; board; ckpt; root = Clog.empty_root; verified = 0; chain = [];
        covered = []; submits = [] }

let submit_epoch st ~op windows epoch =
  let rec go router_id = function
    | [] -> Ok ()
    | recs :: rest -> (
      let t0 = now () in
      let r =
        span ~op "daemon.submit_wait" (fun () ->
            Daemon.submit_wait st.d ~router_id ~epoch recs)
      in
      st.submits <- (now () - t0) :: st.submits;
      match r with
      | Daemon.Accepted -> go (router_id + 1) rest
      | Daemon.Shed -> Error (Printf.sprintf "epoch %d router %d: shed" epoch router_id)
      | Daemon.Duplicate ->
        Error (Printf.sprintf "epoch %d router %d: duplicate" epoch router_id)
      | Daemon.Closed -> Error (Printf.sprintf "epoch %d router %d: closed" epoch router_id))
  in
  go 0 (Array.to_list windows.(epoch))

(* Advance the watermark to [epoch] and wait for the worker; returns
   the ns spent, the span the pass-overhead metric is taken from. *)
let release st ~op epoch =
  let t0 = now () in
  let r =
    span ~op "daemon.pass" (fun () ->
        Daemon.advance st.d ~epoch;
        Daemon.await_idle st.d)
  in
  match r with
  | `Idle -> Ok (now () - t0)
  | `Crashed site -> Error ("worker crashed at " ^ site)

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

(* The client's check of the round that must have landed for [epoch]:
   exactly one new full round, valid, covering every router's published
   commitment, chained to the last root it verified. Worker idle. *)
let verify_landed st ~op epoch =
  let service = Daemon.service st.d in
  let fresh =
    drop st.verified
      (List.combine (Prover_service.rounds service) (Prover_service.coverage service))
  in
  match fresh with
  | [] -> Error (Printf.sprintf "epoch %d: no round landed" epoch)
  | [ ((round : Aggregate.round), (cov : Prover_service.coverage)) ] ->
    if cov.epoch <> epoch || cov.degraded || cov.heal || cov.routers <> all_routers then
      Error (Printf.sprintf "epoch %d: round covers the wrong windows" epoch)
    else
      let* j =
        span ~op "verifier.round" (fun () ->
            Verifier_client.verify_round ~expected_prev:st.root ~round:st.verified
              ~routers:cov.routers ~board:st.board ~epoch round.receipt)
      in
      st.root <- j.Guests.new_root;
      st.verified <- st.verified + 1;
      st.chain <- (epoch, round.receipt) :: st.chain;
      st.covered <- epoch :: st.covered;
      Ok round
  | _ -> Error (Printf.sprintf "epoch %d: more than one round landed" epoch)

(* ---- per-op records and telemetry snapshots ---- *)

type snap = {
  counters : (string * int) list;
  spans : (string * (int * float)) list;
  minor_words : float;
  major : int;
  cpu : float;
}

let snapshot () =
  let g = Gc.quick_stat () in
  let t = Unix.times () in
  {
    counters = Metric.counters ();
    spans = Obs.span_totals_s ();
    minor_words = g.Gc.minor_words;
    major = g.Gc.major_collections;
    cpu = t.Unix.tms_utime +. t.Unix.tms_stime;
  }

type op = {
  id : int;
  due : int;  (** ns: when the op was due *)
  start : int;  (** ns: when the harness began it *)
  finish : int;  (** ns: when its result verified *)
  latency : float;  (** s, from when the op was due *)
  kernel_s : float;  (** calibration kernel time around the op (mean of before and after) *)
  ok : bool;
  items : int;  (** records covered, or 1 per audit session *)
  rounds : Aggregate.round list;
  pass_ns : int list;
  cold : Query.result_row list;
  before : snap option;
  after : snap option;
}

let traced = ref false
let snap_if () = if !traced then Some (snapshot ()) else None

(* ---- workload runs ---- *)

type run = {
  setup_s : float;
  setup_kernel_s : float;  (** calibration kernel time around set-up *)
  ops : op list;
  phase_s : float;  (** measured phase, s *)
  st : st;
  failures : string list;
  checks : (unit -> (unit, string) result) list;  (** output checks, run after timing *)
  setup_gate_s : float;
  ckpt_growth : float * int;  (** WAL bytes grown, rounds, in the measured phase *)
  lateness : float list;
  backlog : int;  (** ingest-steady epochs still unverified when the next-but-one was due *)
  query_hit_s : float list;
  flows_s : float list;
}

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let gate_total () =
  match List.assoc_opt "round.gate" (Obs.span_totals_s ()) with
  | Some (_, s) -> s
  | None -> 0.

(* The reference CLog: every verified epoch's records, folded host-side
   in round order (routers ascending) from scratch. *)
let reference_clog windows covered =
  List.fold_left
    (fun c e -> Clog.apply_batch_rebuild c (epoch_records windows e))
    Clog.empty (List.rev covered)

let root_check st windows () =
  let reference = Clog.root (reference_clog windows st.covered) in
  if not (D.equal reference st.root) then Error "final root differs from the reference CLog"
  else if Daemon.root_hex st.d <> D.to_hex st.root then
    Error "daemon root differs from the verified chain"
  else Ok ()

(* Set-up shared by both workloads: generate, start, prove [s.warmup]
   epochs, with a calibration [tick] after each stage. *)
let setup_rounds ~tick ~dir ~seed s ~epochs =
  let windows = gen_windows ~seed s ~epochs in
  let* st = start_daemon ~dir ~seed in
  tick ();
  let rec warm e =
    if e >= s.warmup then Ok ()
    else
      let* () = submit_epoch st ~op:(-1) windows e in
      let* _ = release st ~op:(-1) e in
      let* _ = verify_landed st ~op:(-1) e in
      tick ();
      warm (e + 1)
  in
  let* () = warm 0 in
  Ok (windows, st)

(* Runs the calibration kernel once the op's result is in, outside its
   timing and its telemetry snapshots. [kernel] holds the kernel time
   taken last before the op, so an op is scaled by the mean of the runs
   on either side of it. *)
let op_of ~kernel ~id ~due ~start ~finish ~latency ~ok ~items ?(rounds = []) ?(pass_ns = [])
    ?(cold = []) ~before () =
  let after = snap_if () in
  let k = Calib.run () in
  let kernel_s = (!kernel +. k) /. 2. in
  kernel := k;
  { id; due; start; finish; latency; kernel_s; ok; items; rounds; pass_ns; cold; before; after }

(* Times set-up [f ~tick]. The calibration kernel runs at both ends and
   at each [tick] between stages, so its mean follows the host through
   set-up; its own time is taken out of the set-up time. Returns the
   result, the set-up time, the mean kernel time and a kernel ref for
   the ops that follow. *)
let timed_setup f =
  let kernels = ref [] in
  let tick () = kernels := Calib.run () :: !kernels in
  let t0 = now () in
  tick ();
  let* x = f ~tick in
  tick ();
  let k_total = sum !kernels in
  let setup_s = secs (now () - t0) -. k_total in
  Ok (x, setup_s, k_total /. float_of_int (List.length !kernels), ref (List.hd !kernels))

(* One ingest-steady epoch: submit, release, verify. *)
let epoch_op st ~op windows epoch =
  let* () = submit_epoch st ~op windows epoch in
  let* pass = release st ~op epoch in
  let* round = verify_landed st ~op epoch in
  Ok (round, pass)

let tamper_window st windows epoch =
  (* The router publishes the honest commitment, then the export the
     operator holds is changed: the round must be refused. *)
  let honest = Array.of_list windows.(epoch).(1) in
  let* _ = Board.publish st.board honest ~router_id:1 ~epoch in
  let changed = Array.copy honest in
  let r = changed.(0) in
  changed.(0) <-
    Record.make ~key:r.Record.key ~first_ts:r.Record.first_ts ~last_ts:r.Record.last_ts
      ~router_id:1
      { r.Record.metrics with packets = r.Record.metrics.packets + 1 };
  windows.(epoch).(1) <- Array.to_list changed;
  Ok ()

let kernel_lead = 50_000_000 (* ns *)

let run_ingest ~dir ~seed ~ops ~tamper s =
  let epochs = s.warmup + ops in
  let* (windows, st), setup_s, setup_kernel_s, kernel =
    timed_setup (setup_rounds ~dir ~seed s ~epochs)
  in
  let setup_gate_s = gate_total () in
  let period = int_of_float (s.period_s *. 1e9) in
  let ckpt0 = file_size st.ckpt in
  let t0 = now () in
  let failures = ref [] in
  let lateness = ref [] in
  let rec loop i acc =
    if i >= ops then List.rev acc
    else begin
      let epoch = s.warmup + i in
      let due = t0 + (i * period) in
      (* Sample the host just before the op when the schedule leaves
         room, so the kernel runs on either side of it are close. *)
      if now () < due - kernel_lead then begin
        sleep_until (due - kernel_lead);
        kernel := Calib.run ()
      end;
      sleep_until due;
      let before = snap_if () in
      let start = now () in
      lateness := secs (start - due) :: !lateness;
      let t_op = Span.start () in
      let r =
        let* () =
          if tamper && i = ops - 1 then tamper_window st windows epoch else Ok ()
        in
        epoch_op st ~op:i windows epoch
      in
      let finish = now () in
      if t_op <> 0 then Span.finish ~args:[ ("op", i) ] "bench.op" t_op;
      let ok, rounds, pass_ns =
        match r with
        | Ok (round, pass) -> (true, [ round ], [ pass ])
        | Error e ->
          failures := e :: !failures;
          (false, [], [])
      in
      let op =
        op_of ~kernel ~id:i ~due ~start ~finish ~latency:(secs (finish - due)) ~ok
          ~items:(Array.length (epoch_records windows epoch))
          ~rounds ~pass_ns ~before ()
      in
      loop (i + 1) (op :: acc)
    end
  in
  let ops_l = loop 0 [] in
  let last = List.fold_left (fun m o -> max m o.finish) t0 ops_l in
  let backlog = List.length (List.filter (fun o -> o.finish - o.due > 2 * period) ops_l) in
  Ok
    {
      setup_s; setup_kernel_s; ops = ops_l; phase_s = secs (last - t0); st;
      failures = List.rev !failures; checks = [ root_check st windows ]; setup_gate_s;
      ckpt_growth = (float_of_int (file_size st.ckpt - ckpt0), ops);
      lateness = List.rev !lateness; backlog; query_hit_s = []; flows_s = [];
    }

(* Audit queries: one cold exact-flow query per session, each asked
   once ((flow, op, metric) never repeats), and one repeat query primed
   in set-up. *)
let ops_cycle = [| Guests.Sum; Guests.Count; Guests.Max; Guests.Min |]
let metrics_cycle = [| Guests.Packets; Guests.Bytes; Guests.Hops; Guests.Losses |]

let cold_query (clog : Clog.t) i =
  let entries = Clog.entries clog in
  let n = Array.length entries in
  let k = (entries.(i mod n)).Clog.key in
  let om = i / n in
  {
    Guests.predicate =
      {
        Guests.src_ip = Some k.Flowkey.src_ip;
        dst_ip = Some k.Flowkey.dst_ip;
        ports = Some ((k.Flowkey.src_port lsl 16) lor k.Flowkey.dst_port);
        proto = Some k.Flowkey.proto;
      };
    op = ops_cycle.(om mod 4);
    metric = metrics_cycle.(om / 4 mod 4);
  }

let primed_query = Query.flow_count

(* Four distinct flows per session, a fresh set each time, so every
   readout is a memo miss of the same size. *)
let flow_sets rng (clog : Clog.t) count =
  let entries = Clog.entries clog in
  let n = Array.length entries in
  let seen = Hashtbl.create count in
  let rec pick acc =
    if List.length acc >= count then List.rev acc
    else
      let idx = List.sort compare (zipf_pick rng ~n ~k:4) in
      if Hashtbl.mem seen idx then pick acc
      else begin
        Hashtbl.replace seen idx ();
        pick (idx :: acc)
      end
  in
  List.map (List.map (fun i -> (entries.(i)).Clog.key)) (pick [])

let run_audit ~dir ~seed ~ops s =
  if ops > 16 * s.flows || ops >= 250 then invalid_arg "audit: too many sessions for distinct cold queries";
  let* (windows, st, clog), setup_s, setup_kernel_s, kernel =
    timed_setup (fun ~tick ->
        let* windows, st = setup_rounds ~tick ~dir ~seed s ~epochs:s.warmup in
        let clog = Prover_service.clog (Daemon.service st.d) in
        let* primed_row, _ = Daemon.query st.d primed_query in
        let* _ = Verifier_client.verify_query ~expected_root:st.root primed_row.Query.receipt in
        Ok (windows, st, clog))
  in
  let setup_gate_s = gate_total () in
  let sets = Array.of_list (flow_sets (Rng.create (Int64.of_int seed)) clog ops) in
  let failures = ref [] in
  let hit_s = ref [] and flows_s = ref [] in
  let answers = ref [] in
  let chain = List.rev st.chain in
  let session op =
    let* vc =
      span ~op "verifier.chain" (fun () -> Verifier_client.verify_chain ~board:st.board chain)
    in
    let* () =
      if D.equal vc.Verifier_client.final_root st.root then Ok ()
      else Error "chain root moved"
    in
    let q = cold_query clog op in
    let* row, hit = span ~op "daemon.query" (fun () -> Daemon.query st.d q) in
    let* () = if hit then Error "cold query hit the memo" else Ok () in
    let* j =
      span ~op "verifier.query" (fun () ->
          Verifier_client.verify_query ~expected_root:vc.final_root row.Query.receipt)
    in
    let t_hit = now () in
    let* prow, phit =
      span ~op ~args:[ ("hit", 1) ] "daemon.query" (fun () -> Daemon.query st.d primed_query)
    in
    hit_s := secs (now () - t_hit) :: !hit_s;
    let* () = if phit then Ok () else Error "primed query missed the memo" in
    let t_flows = now () in
    let* fr, _ =
      span ~op "daemon.query_flows" (fun () ->
          Daemon.query_flows st.d ~metric:Guests.Bytes sets.(op))
    in
    flows_s := secs (now () - t_flows) :: !flows_s;
    let* rows =
      span ~op "verifier.flows" (fun () ->
          Verifier_client.verify_flows ~expected_root:vc.final_root fr)
    in
    answers := (q, j, prow.Query.journal, sets.(op), rows) :: !answers;
    Ok row
  in
  let rec loop i acc =
    if i >= ops then List.rev acc
    else begin
      let before = snap_if () in
      let start = now () in
      let t_op = Span.start () in
      let r = session i in
      let finish = now () in
      if t_op <> 0 then Span.finish ~args:[ ("op", i) ] "bench.op" t_op;
      let ok, cold =
        match r with
        | Ok row -> (true, [ row ])
        | Error e ->
          failures := e :: !failures;
          (false, [])
      in
      let op =
        op_of ~kernel ~id:i ~due:start ~start ~finish ~latency:(secs (finish - start)) ~ok
          ~items:1 ~cold ~before ()
      in
      loop (i + 1) (op :: acc)
    end
  in
  let t0 = now () in
  let ops_l = loop 0 [] in
  let last = List.fold_left (fun m o -> max m o.finish) t0 ops_l in
  (* Each answer against the host's own reference CLog. *)
  let answers_check () =
    let reference = reference_clog windows st.covered in
    let same_rows keys rows =
      List.length keys = List.length rows
      && List.for_all
           (fun (r : Query.flow_row) ->
             match Clog.find reference r.Query.entry.Clog.key with
             | Some (i, e) ->
               i = r.Query.index && e = r.Query.entry
               && r.Query.value = e.Clog.metrics.Record.bytes
             | None -> false)
           rows
      && List.for_all
           (fun k -> List.exists (fun (r : Query.flow_row) -> Flowkey.equal r.Query.entry.Clog.key k) rows)
           keys
    in
    let bad =
      List.filter
        (fun (q, (j : Guests.query_journal), (pj : Guests.query_journal), keys, rows) ->
          let res, m = Query.reference reference q in
          let pres, pm = Query.reference reference primed_query in
          not
            (Guests.params_equal j.Guests.params q
            && j.Guests.result = res && j.Guests.matches = m
            && pj.Guests.result = pres && pj.Guests.matches = pm
            && same_rows keys rows))
        !answers
    in
    if bad = [] then Ok () else Error (Printf.sprintf "%d audit answers differ from the reference" (List.length bad))
  in
  Ok
    {
      setup_s; setup_kernel_s; ops = ops_l; phase_s = secs (last - t0); st;
      failures = List.rev !failures; checks = [ root_check st windows; answers_check ];
      setup_gate_s;
      ckpt_growth = (0., 0); lateness = []; backlog = 0;
      query_hit_s = !hit_s; flows_s = !flows_s;
    }

(* ---- traced run: per-layer figures ---- *)

(* Span name -> layer. The harness's own spans are named after the
   module it calls ([daemon.*], [verifier.*]); the op span's self time
   is the part of an op no named layer covers; "gen" is the open-loop
   generator's lateness. *)
let layer_of name =
  let pre = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
  match (name, pre) with
  | "round.gate", _ -> "analysis"
  | _, ("round" | "agg") -> "aggregate"
  | _, ("daemon" | "zkvm" | "zkproof" | "merkle" | "query" | "verifier" | "analysis") -> pre
  | _, "bench" -> "unattributed"
  | _ -> "other"

let layers =
  [ "gen"; "daemon"; "aggregate"; "analysis"; "zkvm"; "zkproof"; "merkle"; "query";
    "verifier"; "other"; "unattributed" ]

(* Self time of every span: its duration minus the union of its
   children's intervals. Returns per-op layer totals (s). *)
let attribute ops =
  let evs = Array.of_list (Span.events ()) in
  let n = Array.length evs in
  let kids = Array.make n [] in
  Array.iteri
    (fun i (e : Span.evt) -> if e.parent >= 0 then kids.(e.parent) <- i :: kids.(e.parent))
    evs;
  let self i =
    let e = evs.(i) in
    let lo = e.Span.ts_ns and hi = e.Span.ts_ns + e.Span.dur_ns in
    let ivs =
      List.sort compare
        (List.map
           (fun k -> (max lo evs.(k).Span.ts_ns, min hi (evs.(k).Span.ts_ns + evs.(k).Span.dur_ns)))
           kids.(i))
    in
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = max a reach in
          if b > a then (acc + b - a, b) else (acc, reach))
        (0, lo) ivs
    in
    e.Span.dur_ns - covered
  in
  let per_op = Hashtbl.create 64 in
  Array.iteri
    (fun i (e : Span.evt) ->
      if e.Span.name = "bench.op" then begin
        let tbl = Hashtbl.create 16 in
        let rec walk j =
          let l = layer_of evs.(j).Span.name in
          let cur = Option.value ~default:0. (Hashtbl.find_opt tbl l) in
          Hashtbl.replace tbl l (cur +. secs (self j));
          List.iter walk kids.(j)
        in
        walk i;
        Hashtbl.replace per_op (List.assoc "op" e.Span.args) tbl
      end)
    evs;
  List.map
    (fun o ->
      let tbl = Option.value ~default:(Hashtbl.create 1) (Hashtbl.find_opt per_op o.id) in
      Hashtbl.replace tbl "gen" (secs (o.start - o.due));
      (o, tbl))
    ops

let span_delta name (o : op) =
  match (o.before, o.after) with
  | Some b, Some a ->
    let get s = match List.assoc_opt name s.spans with Some (_, t) -> t | None -> 0. in
    get a -. get b
  | _ -> 0.

let counter_delta name (o : op) =
  match (o.before, o.after) with
  | Some b, Some a ->
    let get s = Option.value ~default:0 (List.assoc_opt name s.counters) in
    float_of_int (get a - get b)
  | _ -> 0.

let snap_delta f (o : op) =
  match (o.before, o.after) with Some b, Some a -> f a -. f b | _ -> 0.

let per_layer (r : run) (c : Daemon.counters) =
  let ops = r.ops in
  let n = float_of_int (max 1 (List.length ops)) in
  let mean_per_op f = fsum f ops /. n in
  let rounds = List.concat_map (fun o -> o.rounds) ops in
  let colds = List.concat_map (fun o -> o.cold) ops in
  let round_s (rd : Aggregate.round) = rd.execute_s +. rd.prove_s in
  let spans_named name =
    List.filter_map
      (fun (e : Span.evt) ->
        if e.Span.name = name && List.mem_assoc "op" e.Span.args && List.assoc "op" e.Span.args >= 0
        then Some (secs e.Span.dur_ns)
        else None)
      (Span.events ())
  in
  let attributed = attribute ops in
  let total_latency = fsum (fun (o, _) -> secs (o.finish - o.due)) attributed in
  let layer_self l (_, tbl) = Option.value ~default:0. (Hashtbl.find_opt tbl l) in
  let receipts =
    List.map (fun (rd : Aggregate.round) -> rd.receipt) rounds
    @ List.map (fun (q : Query.result_row) -> q.receipt) colds
  in
  let bytes, nrounds = r.ckpt_growth in
  [
    ("daemon.submit_s", "s", median (List.map secs r.st.submits));
    ( "daemon.pass_overhead_s", "s",
      median
        (List.map
           (fun o -> fsum secs o.pass_ns -. fsum round_s o.rounds)
           (List.filter (fun o -> o.pass_ns <> []) ops)) );
    ("daemon.queue_depth_max", "count", float_of_int c.Daemon.max_depth);
    ("daemon.shed", "count", float_of_int c.Daemon.shed);
    ( "daemon.memo_hit_ratio", "ratio",
      if c.memo_hits + c.memo_misses = 0 then 0.
      else float_of_int c.memo_hits /. float_of_int (c.memo_hits + c.memo_misses) );
    ("daemon.query_hit_s", "s", median r.query_hit_s);
    ("aggregate.round_s", "s", median (List.map round_s rounds));
    ( "aggregate.cycles", "count",
      fsum (fun (rd : Aggregate.round) -> float_of_int rd.cycles) rounds
      /. float_of_int (max 1 (List.length rounds)) );
    ( "zkvm.execute_s", "s",
      median
        (List.map (fun (rd : Aggregate.round) -> rd.execute_s) rounds
        @ List.map (fun (q : Query.result_row) -> q.execute_s) colds) );
    ( "zkproof.prove_s", "s",
      median
        (List.map
           (fun o ->
             fsum (fun (rd : Aggregate.round) -> rd.prove_s) o.rounds
             +. fsum (fun (q : Query.result_row) -> q.prove_s) o.cold)
           ops) );
    ("zkproof.trace_commit_s", "s", median (List.map (span_delta "zkproof.trace_commit") ops));
    ("zkproof.fs_s", "s", median (List.map (span_delta "zkproof.fs") ops));
    ("zkproof.openings_s", "s", median (List.map (span_delta "zkproof.openings") ops));
    ( "zkproof.receipt_bytes", "bytes",
      fsum (fun rc -> float_of_int (Receipt.size rc)) receipts
      /. float_of_int (max 1 (List.length receipts)) );
    ("hash.sha256_compressions", "count", mean_per_op (counter_delta "sha256.compressions"));
    ("merkle.nodes_hashed", "count", mean_per_op (counter_delta "merkle.nodes_hashed"));
    ("merkle.nodes_rehashed", "count", mean_per_op (counter_delta "merkle.nodes_rehashed"));
    ("merkle.nodes_reused", "count", mean_per_op (counter_delta "merkle.nodes_reused"));
    ("merkle.build_s", "s", median (List.map (span_delta "merkle.build") ops));
    ( "store.ckpt_bytes_per_round", "bytes",
      if nrounds = 0 then 0. else bytes /. float_of_int nrounds );
    ("query.prove_s", "s", median (List.map (fun (q : Query.result_row) -> q.prove_s) colds));
    ( "query.cycles", "count",
      fsum (fun (q : Query.result_row) -> float_of_int q.cycles) colds
      /. float_of_int (max 1 (List.length colds)) );
    ("query.flows_s", "s", median r.flows_s);
    ("verifier.round_s", "s", median (spans_named "verifier.round"));
    ("verifier.chain_s", "s", median (spans_named "verifier.chain"));
    ("verifier.query_s", "s", median (spans_named "verifier.query"));
    ("verifier.flows_s", "s", median (spans_named "verifier.flows"));
    ("analysis.gate_s", "s", r.setup_gate_s);
    ( "gc.minor_mb_per_op", "MB",
      mean_per_op (snap_delta (fun s -> s.minor_words)) *. 8. /. 1e6 );
    ( "gc.major_collections_per_op", "count",
      mean_per_op (snap_delta (fun s -> float_of_int s.major)) );
    ("cpu_s_per_op", "s", mean_per_op (snap_delta (fun s -> s.cpu)));
    ("gen.lateness_p50_s", "s", median r.lateness);
    ("gen.lateness_max_s", "s", List.fold_left max 0. r.lateness);
    ("gen.backlog_epochs", "count", float_of_int r.backlog);
    ("host.calib_s", "s", median (List.map (fun o -> o.kernel_s) ops));
  ]
  @ List.concat_map
      (fun l ->
        (* The generator's self time per op is its lateness, already
           reported as gen.lateness_p50_s. *)
        (if l = "gen" then []
         else [ ("self." ^ l ^ "_s", "s", median (List.map (layer_self l) attributed)) ])
        @ [
            ( "share." ^ l, "ratio",
              if total_latency <= 0. then 0. else fsum (layer_self l) attributed /. total_latency );
          ])
      layers

(* ---- main ---- *)

let metric_json (name, unit, v) = (name, Jsonx.Obj [ ("value", Jsonx.Num v); ("unit", Jsonx.Str unit) ])

let heap_peak_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and dir = ref "" in
  let setup_only = ref false and tamper = ref false in
  let usage =
    "perfbench.exe --workload W --seed N --seconds S --dir D [--trace] [--setup-only] [--tamper]"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " ingest-steady | audit");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " nominal length of the measured phase (sets the op count)");
      ("--dir", Arg.Set_string dir, " fresh scratch directory (checkpoint WAL, trace)");
      ("--trace", Arg.Set traced, " record telemetry and report per-layer metrics");
      ("--setup-only", Arg.Set setup_only, " stop after set-up");
      ("--tamper", Arg.Set tamper, " ingest-steady: change one window after its commitment");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail code msg =
    prerr_endline ("perfbench: " ^ msg);
    exit code
  in
  let w =
    match workload_of_string !workload with Some w -> w | None -> fail 2 ("unknown workload " ^ !workload)
  in
  if !dir = "" then fail 2 "--dir is required";
  if Pool.jobs () <> 1 then fail 2 "run with ZKFLOW_JOBS=1";
  (try Unix.mkdir !dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let s = sizes w in
  let ops = if !setup_only then 0 else max 1 (int_of_float (Float.round (!seconds /. s.op_s))) in
  if !traced then begin
    Obs.reset ();
    Obs.enable ()
  end;
  let result =
    match w with
    | Ingest_steady -> run_ingest ~dir:!dir ~seed:!seed ~ops ~tamper:!tamper s
    | Audit -> run_audit ~dir:!dir ~seed:!seed ~ops s
  in
  let r = match result with Ok r -> r | Error e -> fail 1 ("set-up failed: " ^ e) in
  let heap = heap_peak_mb () in
  let c = Daemon.counters r.st.d in
  Obs.disable ();
  let check_errors =
    List.filter_map (fun f -> match f () with Ok () -> None | Error e -> Some e) r.checks
  in
  let per_layer = if !traced && not !setup_only then per_layer r c else [] in
  if !traced then Obs.write_trace (Filename.concat !dir "trace.json");
  Daemon.stop r.st.d;
  let ok_ops = List.filter (fun o -> o.ok) r.ops in
  let raw = List.map (fun o -> o.latency) ok_ops in
  (* End-to-end timings are scaled to the reference host speed, each op
     by the kernel runs on either side of it (Calib); the raw figures go
     to the diagnostics line. *)
  let scaled = List.map (fun o -> Calib.scale ~kernel_s:o.kernel_s o.latency) ok_ops in
  let items = List.fold_left (fun a o -> a + o.items) 0 ok_ops in
  let throughput =
    match w with
    | Ingest_steady ->
      (* Open loop: records per second of schedule, a guard against a
         growing backlog rather than a capacity. *)
      if r.phase_s > 0. then float_of_int items /. r.phase_s else 0.
    | Audit ->
      (* Closed loop, one client: sessions per second of session time. *)
      let busy = sum scaled in
      if busy > 0. then float_of_int items /. busy else 0.
  in
  let e2e =
    [
      ("latency_p50_s", "s", percentile 0.5 scaled);
      ("latency_p75_s", "s", percentile 0.75 scaled);
      ("throughput_per_s", "1/s", throughput);
      ("heap_peak_mb", "MB", heap);
      ("setup_s", "s", Calib.scale ~kernel_s:r.setup_kernel_s r.setup_s);
    ]
  in
  let env = Matrix.env_provenance () in
  let config =
    Jsonx.Obj
      ([
         ("workload", Jsonx.Str (workload_name w));
         ("seed", Jsonx.Num (float_of_int !seed));
         ("ops", Jsonx.Num (float_of_int ops));
         ("jobs", Jsonx.Num (float_of_int (Pool.jobs ())));
         ("nproc", Jsonx.Num (float_of_int (Domain.recommended_domain_count ())));
         ("ocaml", Jsonx.Str Sys.ocaml_version);
         ("queue_capacity", Jsonx.Num (float_of_int config.Daemon.queue_capacity));
         ("proof_queries", Jsonx.Num (float_of_int proof_params.Params.queries));
         ("routers", Jsonx.Num (float_of_int routers));
         ("flows", Jsonx.Num (float_of_int s.flows));
         ("per_router", Jsonx.Num (float_of_int s.per_router));
         ("warmup", Jsonx.Num (float_of_int s.warmup));
         ("period_s", Jsonx.Num s.period_s);
         ("traced", Jsonx.Bool !traced);
       ]
      @ env)
  in
  let kernels = List.map (fun o -> o.kernel_s) r.ops in
  (* What makes the latencies valid: the open loop kept its schedule
     and the queue its bound. The kernel times show how far the host's
     speed moved and the raw figures what the scaling changed. *)
  let diagnostics =
    Jsonx.Obj
      [
        ("ops", Jsonx.Num (float_of_int (List.length r.ops)));
        ("failed", Jsonx.Num (float_of_int (List.length r.ops - List.length ok_ops)));
        ("lateness_p50_s", Jsonx.Num (median r.lateness));
        ("lateness_max_s", Jsonx.Num (List.fold_left max 0. r.lateness));
        ("backlog_grew", Jsonx.Bool (r.backlog > 0));
        ("queue_depth_max", Jsonx.Num (float_of_int c.Daemon.max_depth));
        ("shed", Jsonx.Num (float_of_int c.Daemon.shed));
        ("measured_s", Jsonx.Num r.phase_s);
        ("raw_latency_p50_s", Jsonx.Num (percentile 0.5 raw));
        ("raw_latency_p75_s", Jsonx.Num (percentile 0.75 raw));
        ("raw_setup_s", Jsonx.Num r.setup_s);
        ("setup_kernel_s", Jsonx.Num r.setup_kernel_s);
        ("kernel_min_s", Jsonx.Num (percentile 0. kernels));
        ("kernel_p50_s", Jsonx.Num (median kernels));
        ("kernel_max_s", Jsonx.Num (percentile 1. kernels));
      ]
  in
  let failures = r.failures @ check_errors in
  List.iter (fun f -> prerr_endline ("perfbench: " ^ f)) failures;
  if r.backlog > 0 then
    prerr_endline
      (Printf.sprintf "perfbench: backlog grew: %d epoch(s) unverified when the next-but-one was due"
         r.backlog);
  let correct = check_errors = [] in
  let result =
    Jsonx.Obj
      [
        ("correct", Jsonx.Bool correct);
        ("attempted", Jsonx.Num (float_of_int (max 1 (List.length r.ops))));
        ("failed", Jsonx.Num (float_of_int (List.length r.ops - List.length ok_ops)));
        ("metrics", Jsonx.Obj (List.map metric_json e2e));
        ("per_layer", Jsonx.Obj (List.map metric_json per_layer));
      ]
  in
  print_endline (Jsonx.to_string (Jsonx.Obj [ ("config", config) ]));
  print_endline (Jsonx.to_string (Jsonx.Obj [ ("diagnostics", diagnostics) ]));
  print_endline (Jsonx.to_string result);
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ r.st.ckpt; r.st.ckpt ^ ".tmp" ];
  if not correct then exit 1

let () = main ()
