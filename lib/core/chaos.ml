module Db = Zkflow_store.Db
module Epoch = Zkflow_store.Epoch
module Board = Zkflow_commitlog.Board
module Gen = Zkflow_netflow.Gen
module Topology = Zkflow_netflow.Topology
module Rng = Zkflow_util.Rng
module Jsonx = Zkflow_util.Jsonx
module Fault = Zkflow_fault.Fault
module Event = Zkflow_obs.Event
module D = Zkflow_hash.Digest32

type config = {
  routers : int;
  flows : int;
  rate_pps : float;
  duration_ms : int;
  loss_rate : float;
  queries : int;
  max_restarts : int;
}

let default_config =
  {
    routers = 3;
    flows = 8;
    rate_pps = 30.;
    duration_ms = 11_000;
    loss_rate = 0.;
    queries = 8;
    max_restarts = 40;
  }

type status = Complete | Degraded

type report = {
  plan : Fault.plan;
  status : status;
  packets : int;
  records : int;
  epochs : int;
  rounds : int;
  heal_rounds : int;
  crashes : int;
  resumes : int;
  restored_rounds : int;
  open_gaps : (int * int) list;
  final_root : string;
  twin_root : string;
  safety_ok : bool;
  liveness_ok : bool;
  slo_expected : string list;
  slo_fired : string list;
  slo_ok : bool;
  twin_slo_fired : string list;
  twin_slo_ok : bool;
  submitted : int;
  accepted : int;
  shed : int;
  duplicates : int;
  drains : int;
  breaker_opens : int;
  flood_windows : int;
  flood_shed : int;
  flood_ok : bool;
}

let ( let* ) = Result.bind

(* ---- deterministic traffic ---- *)

let simulate ~cfg ~seed ~wal_path =
  let db =
    Db.create ~wal_path ~epoch:(Epoch.make ~interval_ms:5000) ()
  in
  let rng = Rng.create (Int64.of_int seed) in
  let profile = { Gen.default_profile with Gen.flow_count = cfg.flows } in
  let flow_keys = Gen.flows rng profile in
  let packets =
    Gen.packets rng profile ~flows:flow_keys ~rate_pps:cfg.rate_pps
      ~duration_ms:cfg.duration_ms
  in
  (* Short active timeout: flows export mid-run, so the traffic spreads
     over several epochs — the fault grid (drops/delays at epoch > 0)
     needs real windows to hit. *)
  let topology =
    Topology.linear
      (List.init cfg.routers (fun id ->
           {
             Zkflow_netflow.Router.id;
             active_timeout_ms = 3_000;
             inactive_timeout_ms = 1_500;
             sampling_interval = 1;
           }))
  in
  let losses = Array.make cfg.routers cfg.loss_rate in
  let records = ref 0 in
  let drain exports =
    List.iter
      (fun (_, recs) ->
        List.iter
          (fun r ->
            incr records;
            Db.insert db r)
          recs)
      exports
  in
  (* Pump the timeout clock while injecting: without periodic expiry
     every flow would sit in the cache until the final flush and the
     whole run would collapse into one epoch. *)
  let tick_ms = 1_000 in
  let next_tick = ref tick_ms in
  List.iter
    (fun (p : Zkflow_netflow.Packet.t) ->
      while p.Zkflow_netflow.Packet.ts >= !next_tick do
        drain (Topology.expire topology ~now:!next_tick);
        next_tick := !next_tick + tick_ms
      done;
      Topology.inject topology ~rng ~loss_rate:losses p)
    packets;
  drain (Topology.flush topology ~now:cfg.duration_ms);
  Db.sync db;
  (db, List.length packets, !records)

(* ---- publication phase ----

   Routers publish epoch by epoch, router by router, with the plan's
   data faults applied:

   - a Drop never publishes (and never will — the export was lost);
   - a Delay holds the publication back until the heal phase, and —
     because the board enforces monotone epochs per router — every
     later epoch of the same router queues behind it;
   - a Duplicate publishes twice and the board must reject the copy.

   The walk is idempotent (already-published pairs are skipped), so
   the crash-retry loop can simply run it again after a crash at the
   "board.publish" site; [emitted] keeps fault events from being
   recorded twice across such retries. *)

let blocked plan ~router ~epoch =
  let rec go e = e <= epoch && (Fault.delayed plan ~router ~epoch:e || go (e + 1)) in
  go 0

let emit_once emitted ~kind ~router ~epoch =
  if not (Hashtbl.mem emitted (kind, router, epoch)) then begin
    Hashtbl.replace emitted (kind, router, epoch) ();
    Event.emit ~router ~epoch ~track:"fault" kind
  end

let publish_pair board db ~router_id ~epoch =
  let records = Db.window db ~router_id ~epoch in
  Board.publish board records ~router_id ~epoch

let attempt_duplicate emitted board db ~plan ~emit ~router_id ~epoch =
  if Fault.duplicated plan ~router:router_id ~epoch
     && not (Hashtbl.mem emitted ("fault.duplicate.done", router_id, epoch))
  then begin
    if emit then emit_once emitted ~kind:"fault.duplicate" ~router:router_id ~epoch;
    match publish_pair board db ~router_id ~epoch with
    | Ok _ ->
      Error
        (Printf.sprintf
           "chaos: board accepted a duplicate publication (router %d epoch %d)"
           router_id epoch)
    | Error _ ->
      (* The reject is the correct reaction; remember it happened so a
         crash-retry does not provoke (and count) it twice. *)
      Hashtbl.replace emitted ("fault.duplicate.done", router_id, epoch) ();
      Ok ()
  end
  else Ok ()

(* One walk serves both phases: the prompt walk ([~held:false])
   publishes everything neither dropped nor delayed, marking the faults
   it applies; the held walk ([~held:true]) delivers what the delays
   held back, per router in epoch order (the board insists). *)
let publish_walk ~held emitted board db ~plan ~emit =
  let mark kind ~router_id ~epoch =
    if emit && not held then emit_once emitted ~kind ~router:router_id ~epoch
  in
  let rec per_epoch = function
    | [] -> Ok ()
    | epoch :: rest ->
      let rec per_router = function
        | [] -> per_epoch rest
        | router_id :: rs ->
          if Board.lookup board ~router_id ~epoch <> None then per_router rs
          else if Fault.dropped plan ~router:router_id ~epoch then begin
            mark "fault.drop" ~router_id ~epoch;
            per_router rs
          end
          else if blocked plan ~router:router_id ~epoch <> held then begin
            if Fault.delayed plan ~router:router_id ~epoch then
              mark "fault.delay" ~router_id ~epoch;
            per_router rs
          end
          else
            let* _ = publish_pair board db ~router_id ~epoch in
            let* () = attempt_duplicate emitted board db ~plan ~emit ~router_id ~epoch in
            per_router rs
      in
      per_router (Db.routers_for db ~epoch)
  in
  per_epoch (Db.epochs db)

(* ---- aggregation phase of the twin ---- *)

let aggregate_uncovered service db =
  let covered = Prover_service.covered_epochs service in
  let rec go = function
    | [] -> Ok ()
    | epoch :: rest ->
      if List.mem epoch covered then go rest
      else
        let* _ = Prover_service.aggregate_available service ~epoch in
        go rest
  in
  go (Db.epochs db)

(* ---- the uninterrupted twin ----

   Same records, same data faults (they shape {e what} is available to
   aggregate), but no crashes, no storage corruption: the clean-room
   control run. Safety's acid test is that the chaos run's final CLog
   root is bit-identical to this one. When the flight recorder is on,
   the twin records into an isolated ring ({!Event.isolate}) — its
   events feed the "clean runs don't trip the SLOs" assertion without
   ever polluting the chaos run's log. *)
let twin_root ~cfg ~plan db =
  let body () =
    let emitted = Hashtbl.create 16 in
    let board = Board.create () in
    let service =
      Prover_service.create
        ~proof_params:(Zkflow_zkproof.Params.make ~queries:cfg.queries)
        ~db ~board ()
    in
    let* () = publish_walk ~held:false emitted board db ~plan ~emit:false in
    let* () = aggregate_uncovered service db in
    let* () = publish_walk ~held:true emitted board db ~plan ~emit:false in
    let* _ = Prover_service.heal service in
    Ok (Prover_service.latest_root service)
  in
  let result, twin_events = Event.isolate body in
  Result.map (fun root -> (root, twin_events)) result

(* ---- storage corruption while the prover is down ---- *)

let apply_storage_fault ~seed ~serial path fault =
  let corrupt data =
    let size = String.length data in
    match fault with
    | Fault.Torn_write { target = "checkpoint"; drop_bytes } ->
      let keep = max 0 (size - drop_bytes) in
      Some (String.sub data 0 keep, "fault.torn_write", [ ("bytes", size - keep) ])
    | Fault.Bit_flip { target = "checkpoint" } when size > 0 ->
      let rng = Rng.create (Int64.of_int (0xf11b + seed + (131 * serial))) in
      let byte = Rng.int rng size and bit = Rng.int rng 8 in
      let flipped = Bytes.of_string data in
      Bytes.set flipped byte
        (Char.chr (Char.code (Bytes.get flipped byte) lxor (1 lsl bit)));
      Some (Bytes.to_string flipped, "fault.bit_flip", [ ("byte", byte); ("bit", bit) ])
    | _ -> None
  in
  if Sys.file_exists path then
    match corrupt (In_channel.with_open_bin path In_channel.input_all) with
    | None -> ()
    | Some (data, kind, nums) ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
      Event.emit ~track:"fault" kind
        ~attrs:
          (("target", Jsonx.Str "checkpoint")
          :: List.map (fun (k, n) -> (k, Jsonx.Num (float_of_int n))) nums)

(* ---- verification ----

   Every receipt must verify against its claimed coverage from public
   data only, with the service's open gaps as the declared holes. The
   main daemon and the flood daemon are both judged by this. *)
let verify_service ~board service =
  let covered =
    List.map2
      (fun (cov : Prover_service.coverage) (round : Aggregate.round) ->
        {
          Verifier_client.epoch = cov.Prover_service.epoch;
          routers = cov.Prover_service.routers;
          degraded = cov.Prover_service.degraded;
          heal = cov.Prover_service.heal;
          receipt = round.Aggregate.receipt;
        })
      (Prover_service.coverage service)
      (Prover_service.rounds service)
  in
  Verifier_client.verify_coverage ~board ~gaps:(Prover_service.open_gaps service)
    covered

(* The SLO cross-check, the one policy behind the report's [slo_ok] /
   [twin_slo_ok] and {!verdict}'s message: the chaos run must fire
   exactly [slo_expected] (returns what it missed and what it fired
   spuriously), and the uninterrupted twin, which shares the plan's
   data faults, only what those faults cause. *)
let slo_mismatches ~slo_expected ~slo_fired ~twin_slo_fired =
  let absent l n = not (List.mem n l) in
  let twin_allowed n =
    (n = "coverage" || n = "board-integrity") && List.mem n slo_expected
  in
  ( List.filter (absent slo_fired) slo_expected,
    List.filter (absent slo_expected) slo_fired,
    List.filter (fun n -> not (twin_allowed n)) twin_slo_fired )

(* ---- the chaos run ----

   The pipeline under test is the resident {!Daemon}, the same one
   [zkflow serve] runs. It runs with [publish = false]: the harness
   plays the routers against the board with the twin's [publish_walk],
   so a Drop is a publication destroyed, a Delay is one held to the
   heal phase, a Duplicate is a board-level reject — and the final
   root is comparable to the batch twin's over the same records.

   Kills come from two directions: crash sites inside the worker
   thread surface as [`Crashed] from {!Daemon.await_idle} (or an
   [Error] from {!Daemon.drain}), and crash sites on harness-driven
   board walks (["board.publish"]) raise in the harness thread, which
   then kills the parked daemon to model the whole process dying.
   Either way recovery is the same supervised
   path a real [zkflow serve] restart takes: at most one queued
   storage fault corrupts the checkpoint WAL "while the process is
   down", then {!Daemon.restart} resumes from disk (recursing on a
   crash inside recovery itself). Every per-epoch step is idempotent
   against recovered state — re-submitted windows come back
   [Duplicate], republished pairs are skipped — so the schedule simply
   re-runs after each death. *)

exception Daemon_wedged of string

let run ?dir ?(config = default_config) ~plan () =
  let cfg = config in
  let dir =
    match dir with
    | Some d -> d
    | None ->
      let d = Filename.temp_file "zkflow-chaos" "" in
      Sys.remove d;
      d
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ckpt_path = Filename.concat dir "checkpoints.wal" in
  if Sys.file_exists ckpt_path then Sys.remove ckpt_path;
  let db_sim, packets, records =
    simulate ~cfg ~seed:plan.Fault.seed ~wal_path:(Filename.concat dir "rlogs.wal")
  in
  let proof_params = Zkflow_zkproof.Params.make ~queries:cfg.queries in
  (* Control run first, before any fault is armed: the daemon must not
     only survive its kills, it must attest the exact history the
     non-resident pipeline would have. *)
  let* twin, twin_events = twin_root ~cfg ~plan db_sim in
  let dcfg =
    {
      Daemon.default_config with
      Daemon.publish = false;
      retry_sleep = (fun (_ : float) -> ());
    }
  in
  let db = Db.create ~epoch:(Epoch.make ~interval_ms:5000) () in
  let board = Board.create () in
  let* d, _ = Daemon.create ~config:dcfg ~proof_params ~db ~board ~ckpt_path () in
  Fault.install plan;
  let emitted = Hashtbl.create 16 in
  let crashes = ref 0 and resumes = ref 0 and restored = ref 0 in
  let submitted = ref 0 in
  let storage_queue = ref (Fault.storage_faults plan) in
  let serial = ref 0 in
  (* Recovery after a death: one storage fault while "down", then a
     supervised restart — looping when recovery itself is killed. *)
  let rec recover name =
    if !crashes > cfg.max_restarts then
      Error (Printf.sprintf "chaos: %s: exceeded %d restarts" name cfg.max_restarts)
    else begin
      (match !storage_queue with
      | [] -> ()
      | fault :: rest ->
        storage_queue := rest;
        incr serial;
        apply_storage_fault ~seed:plan.Fault.seed ~serial:!serial ckpt_path fault);
      match Daemon.restart d with
      | Ok n ->
        incr resumes;
        restored := n;
        Ok ()
      | Error "crashed during resume" ->
        incr crashes;
        recover name
      | Error e -> Error ("chaos: resume failed: " ^ e)
    end
  in
  (* A worker death shows up as [`Crashed]; rethrow it as the same
     {!Fault.Crash} a harness-side site raises so [step] handles both
     identically ({!Daemon.kill} on an already-crashed daemon is a
     no-op join). *)
  let settle () =
    match Daemon.await_idle d with
    | `Idle -> ()
    | `Crashed site -> raise (Fault.Crash site)
  in
  let offer ~router_id ~epoch =
    let recs = Array.to_list (Db.window db_sim ~router_id ~epoch) in
    incr submitted;
    match Daemon.submit_wait d ~router_id ~epoch recs with
    | Daemon.Accepted | Daemon.Duplicate -> ()
    | Daemon.Shed -> raise (Daemon_wedged "submit_wait shed a window")
    | Daemon.Closed -> (
      match Daemon.crashed d with
      | Some site -> raise (Fault.Crash site)
      | None -> raise (Daemon_wedged "intake closed under a running harness"))
  in
  let rec step name f =
    match f () with
    | result -> result
    | exception Fault.Crash site ->
      incr crashes;
      Daemon.kill d ~site;
      let* () = recover name in
      step name f
  in
  (* Per-epoch schedule: ingest the epoch's windows, publish on the
     routers' behalf, close the epoch, let the worker prove it. *)
  let epoch_step epoch () =
    List.iter (fun router_id -> offer ~router_id ~epoch) (Db.routers_for db_sim ~epoch);
    settle ();
    let* () = publish_walk ~held:false emitted board db_sim ~plan ~emit:true in
    Daemon.advance d ~epoch;
    settle ();
    Ok ()
  in
  (* A death mid-drain reports as [Error]; rethrow it like the others.
     The crash is read only once the drain has returned. *)
  let drain () =
    match Daemon.drain d with
    | Ok () -> Ok ()
    | Error e -> (
      match Daemon.crashed d with
      | Some site -> raise (Fault.Crash site)
      | None -> Error e)
  in
  let result =
    try
      let rec epochs_loop = function
        | [] -> Ok ()
        | epoch :: rest ->
          let* () = step "epoch" (epoch_step epoch) in
          epochs_loop rest
      in
      let* () = epochs_loop (Db.epochs db_sim) in
      (* Deliver what the delays held back, then drain: the heal
         rounds happen inside the drain — which is exactly where the
         kill-during-drain plans aim. *)
      let deliver () = publish_walk ~held:true emitted board db_sim ~plan ~emit:true in
      let* () = step "deliver" deliver in
      step "drain" drain
    with Daemon_wedged e -> Error ("chaos: " ^ e)
  in
  Fault.clear ();
  let* () =
    match result with
    | Ok () -> Ok ()
    | Error e ->
      Daemon.stop d;
      Error e
  in
  let main_counters = Daemon.counters d in
  (* ---- flood phase: overload burst against a parked throwaway
     daemon (its own store/board/WAL — accepted flood windows must
     never leak into the twin-compared history above) ---- *)
  let* flood_windows, flood_shed, flood_ok =
    match Fault.flood plan with
    | None -> Ok (0, 0, true)
    | Some (windows, capacity) ->
      Event.emit ~track:"fault" "fault.flood"
        ~attrs:
          [
            ("windows", Jsonx.Num (float_of_int windows));
            ("capacity", Jsonx.Num (float_of_int capacity));
          ];
      let fdb = Db.create ~epoch:(Epoch.make ~interval_ms:5000) () in
      let fboard = Board.create () in
      let fckpt = Filename.concat dir "flood-checkpoints.wal" in
      if Sys.file_exists fckpt then Sys.remove fckpt;
      let fcfg = { dcfg with Daemon.publish = true; queue_capacity = capacity } in
      let* fd, _ =
        Daemon.create ~config:fcfg ~proof_params ~paused:true ~db:fdb ~board:fboard
          ~ckpt_path:fckpt ()
      in
      let rng = Rng.create (Int64.of_int (0xf100d + plan.Fault.seed)) in
      let shed = ref 0 in
      (* One window per epoch, all at a parked worker: admission is a
         pure queue race, so exactly [windows - capacity] must shed. *)
      for i = 0 to windows - 1 do
        let recs =
          Gen.records rng Gen.default_profile ~router_id:0 ~count:2
          |> Array.to_list
          |> List.map (fun (r : Zkflow_netflow.Record.t) ->
                 Zkflow_netflow.Record.make ~key:r.Zkflow_netflow.Record.key
                   ~first_ts:(i * 5000)
                   ~last_ts:((i * 5000) + 100)
                   ~router_id:0 r.Zkflow_netflow.Record.metrics)
        in
        match Daemon.submit fd ~router_id:0 ~epoch:i recs with
        | Daemon.Accepted -> ()
        | Daemon.Shed -> incr shed
        | Daemon.Duplicate | Daemon.Closed ->
          incr shed (* impossible here; count it so flood_ok fails loudly *)
      done;
      Daemon.unpause fd;
      Daemon.advance fd ~epoch:(windows - 1);
      let flood_result = Daemon.drain fd in
      let fverified = verify_service ~board:fboard (Daemon.service fd) in
      Daemon.stop fd;
      let ok =
        Result.is_ok flood_result
        && Result.is_ok fverified
        && !shed = max 0 (windows - capacity)
      in
      Ok (windows, !shed, ok)
  in
  let service = Daemon.service d in
  let verified = verify_service ~board service in
  let open_gaps = Prover_service.open_gaps service in
  let final = Prover_service.latest_root service in
  (* Safety: the history verifies and is bit-identical to the twin's. *)
  let safety_ok = Result.is_ok verified && D.equal final twin in
  (* Liveness: the run ended with every window either verified or
     explicitly degraded — an open gap is legitimate only for an
     export the plan destroyed (a Drop); anything else still missing
     means the pipeline lost data it was given. *)
  let liveness_ok =
    Result.is_ok verified
    && List.for_all
         (fun (router, epoch) -> Fault.dropped plan ~router ~epoch)
         open_gaps
  in
  let coverage = Prover_service.coverage service in
  (* SLO cross-check: the chaos run must fire exactly the objectives
     its injected faults wound (drops/delays -> coverage, duplicates ->
     board-integrity, crashes -> prover-restarts, floods ->
     ingest-admission), and the twin only what its shared data faults
     cause. Both lists are derived from recorded events, so with the
     flight recorder off they are empty and the check is vacuous. *)
  let chaos_events = Event.events () in
  let slo_expected = Slo.expected_for chaos_events in
  let slo_fired = Slo.firing_names (Slo.evaluate chaos_events) in
  let twin_slo_fired = Slo.firing_names (Slo.evaluate twin_events) in
  let missed, spurious, twin_spurious =
    slo_mismatches ~slo_expected ~slo_fired ~twin_slo_fired
  in
  let slo_ok = missed = [] && spurious = [] in
  let twin_slo_ok = twin_spurious = [] in
  (* Leave artifacts behind for `zkflow stats` / `monitor`: the public
     board and the saved service state, both written atomically. *)
  Zkflow_store.Wal.write_file_atomic
    (Filename.concat dir "board.txt")
    (Bytes.of_string (Board.export board));
  Zkflow_store.Wal.write_file_atomic
    (Filename.concat dir "service.bin")
    (Prover_service.save service);
  Daemon.stop d;
  Ok
    {
      plan;
      status = (if open_gaps = [] then Complete else Degraded);
      packets;
      records;
      epochs = List.length (Db.epochs db_sim);
      rounds = List.length coverage;
      heal_rounds =
        List.length
          (List.filter (fun (c : Prover_service.coverage) -> c.Prover_service.heal) coverage);
      crashes = !crashes;
      resumes = !resumes;
      restored_rounds = !restored;
      open_gaps;
      final_root = D.to_hex final;
      twin_root = D.to_hex twin;
      safety_ok;
      liveness_ok;
      slo_expected;
      slo_fired;
      slo_ok;
      twin_slo_fired;
      twin_slo_ok;
      submitted = !submitted;
      accepted = main_counters.Daemon.accepted;
      shed = main_counters.Daemon.shed + flood_shed;
      duplicates = main_counters.Daemon.duplicates;
      drains = main_counters.Daemon.drains;
      breaker_opens = main_counters.Daemon.breaker_opens;
      flood_windows;
      flood_shed;
      flood_ok;
    }

(* ---- verdict ---- *)

let verdict r =
  let missed, spurious, twin_spurious =
    slo_mismatches ~slo_expected:r.slo_expected ~slo_fired:r.slo_fired
      ~twin_slo_fired:r.twin_slo_fired
  in
  let named label = List.map (( ^ ) label) in
  let failures =
    List.concat
      [
        (if r.safety_ok then [] else [ "safety violated" ]);
        (if r.liveness_ok then [] else [ "liveness violated" ]);
        (if r.flood_ok then [] else [ "bounded-ingest shedding violated" ]);
        named "missed SLO " missed;
        named "spurious SLO " spurious;
        named "twin fired SLO " twin_spurious;
      ]
  in
  if failures = [] then Ok ()
  else
    Error
      (Printf.sprintf "chaos: plan %S: %s" r.plan.Fault.name
         (String.concat "; " failures))

(* ---- reporting ---- *)

let status_string = function Complete -> "complete" | Degraded -> "degraded"

let to_json r =
  let num n = Jsonx.Num (float_of_int n) in
  let strs l = Jsonx.Arr (List.map (fun s -> Jsonx.Str s) l) in
  Jsonx.Obj
    [
      ("plan", Fault.plan_to_json r.plan);
      ("status", Jsonx.Str (status_string r.status));
      ("packets", num r.packets);
      ("records", num r.records);
      ("epochs", num r.epochs);
      ("rounds", num r.rounds);
      ("heal_rounds", num r.heal_rounds);
      ("crashes", num r.crashes);
      ("resumes", num r.resumes);
      ("restored_rounds", num r.restored_rounds);
      ( "open_gaps",
        Jsonx.Arr
          (List.map
             (fun (router, epoch) ->
               Jsonx.Obj [ ("router", num router); ("epoch", num epoch) ])
             r.open_gaps) );
      ("final_root", Jsonx.Str r.final_root);
      ("twin_root", Jsonx.Str r.twin_root);
      ("safety_ok", Jsonx.Bool r.safety_ok);
      ("liveness_ok", Jsonx.Bool r.liveness_ok);
      ("slo_expected", strs r.slo_expected);
      ("slo_fired", strs r.slo_fired);
      ("slo_ok", Jsonx.Bool r.slo_ok);
      ("twin_slo_fired", strs r.twin_slo_fired);
      ("twin_slo_ok", Jsonx.Bool r.twin_slo_ok);
      ( "daemon",
        Jsonx.Obj
          [
            ("submitted", num r.submitted);
            ("accepted", num r.accepted);
            ("shed", num r.shed);
            ("duplicates", num r.duplicates);
            ("drains", num r.drains);
            ("breaker_opens", num r.breaker_opens);
            ("flood_windows", num r.flood_windows);
            ("flood_shed", num r.flood_shed);
            ("flood_ok", Jsonx.Bool r.flood_ok);
          ] );
    ]

let pp fmt r =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "chaos plan %S (seed %d): %d fault(s)@," r.plan.Fault.name
    r.plan.Fault.seed
    (List.length r.plan.Fault.faults);
  Format.fprintf fmt "traffic: %d packets -> %d records over %d epoch(s)@," r.packets
    r.records r.epochs;
  Format.fprintf fmt "prover: %d round(s) (%d heal), %d crash(es), %d resume(s), %d restored@,"
    r.rounds r.heal_rounds r.crashes r.resumes r.restored_rounds;
  Format.fprintf fmt "daemon: %d window(s) offered, %d accepted, %d shed, %d duplicate(s)@,"
    r.submitted r.accepted r.shed r.duplicates;
  Format.fprintf fmt "daemon: %d drain(s), breaker opened %d time(s)@," r.drains
    r.breaker_opens;
  if r.flood_windows > 0 then
    Format.fprintf fmt "flood: %d window(s) -> %d shed -> %s@," r.flood_windows
      r.flood_shed
      (if r.flood_ok then "OK" else "VIOLATED");
  (match r.open_gaps with
  | [] -> Format.fprintf fmt "gaps: none open@,"
  | gs ->
    Format.fprintf fmt "gaps: %d open (%s)@," (List.length gs)
      (String.concat ", "
         (List.map (fun (router, ep) -> Printf.sprintf "r%d/e%d" router ep) gs)));
  Format.fprintf fmt "final root: %s@," (String.sub r.final_root 0 16);
  Format.fprintf fmt "twin root:  %s@," (String.sub r.twin_root 0 16);
  (if r.slo_expected <> [] || r.slo_fired <> [] || r.twin_slo_fired <> [] then
     let names = function [] -> "none" | l -> String.concat "," l in
     Format.fprintf fmt
       "slo: expected [%s] fired [%s] -> %s; twin fired [%s] -> %s@,"
       (names r.slo_expected) (names r.slo_fired)
       (if r.slo_ok then "OK" else "MISMATCH")
       (names r.twin_slo_fired)
       (if r.twin_slo_ok then "OK" else "SPURIOUS"));
  Format.fprintf fmt "safety: %s, liveness: %s -> %s@]"
    (if r.safety_ok then "OK" else "VIOLATED")
    (if r.liveness_ok then "OK" else "VIOLATED")
    (status_string r.status)
