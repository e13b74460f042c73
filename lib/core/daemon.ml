(* The resident telemetry service behind [zkflow serve].

   Concurrency model: ONE worker thread owns every piece of mutable
   pipeline state — the record store, the prover service, the board.
   Exporters (the replay loop, the chaos harness) only touch the
   bounded ingest queue under [m]; HTTP query threads only read an
   immutable CLog snapshot behind [prove_m]. OCaml's Hashtbl-based
   store is not thread-safe, and the CLog root depends on round
   *order*, so funnelling all mutation through one thread is both the
   safety and the determinism story: given the same submissions and
   watermarks, the round schedule — and therefore the root — is
   bit-identical across runs and across crash/resume. *)

module Db = Zkflow_store.Db
module Board = Zkflow_commitlog.Board
module Record = Zkflow_netflow.Record
module Flowkey = Zkflow_netflow.Flowkey
module Ipaddr = Zkflow_netflow.Ipaddr
module Fault = Zkflow_fault.Fault
module Obs = Zkflow_obs
module Httpd = Zkflow_obs.Httpd
module Jsonx = Zkflow_util.Jsonx
module Rng = Zkflow_util.Rng
module D = Zkflow_hash.Digest32

let ( let* ) = Result.bind

type config = {
  queue_capacity : int;
  publish : bool;
  retry_sleep : float -> unit;
}

let default_config = { queue_capacity = 64; publish = true; retry_sleep = Thread.delay }

(* Per I/O edge: 5 attempts, jittered backoff from 1 ms capped at
   50 ms. *)
let retry_attempts = 5
let retry_base_ms = 1.
let retry_max_ms = 50.

(* 3 consecutive exhausted edges open the breaker; it half-opens after
   4 worker passes. *)
let breaker_threshold = 3
let breaker_cooldown = 4

type submit_result = Accepted | Shed | Duplicate | Closed

type item = { router_id : int; epoch : int; records : Record.t list }

(* Windows as (epoch, router), ordered by epoch, then router. *)
module Pairs = Set.Make (struct
  type t = int * int

  let compare (e, r) (e', r') = match Int.compare e e' with 0 -> Int.compare r r' | c -> c
end)

module Epochs = Set.Make (Int)

type breaker = Closed_b | Open_b of int | Half_open_b

type lifecycle = Running | Draining

type t = {
  config : config;
  proof_params : Zkflow_zkproof.Params.t;
  db : Db.t;
  board : Board.t;
  ckpt_path : string;
  retry_rng : Rng.t;
  m : Mutex.t;
  cv : Condition.t; (* work arrived / space freed / lifecycle change *)
  idle_cv : Condition.t; (* worker went idle or crashed *)
  queue : item Queue.t;
  seen : (int * int, unit) Hashtbl.t; (* accepted (router, epoch) windows *)
  unpublishable : (int * int, unit) Hashtbl.t; (* board rejected; don't retry *)
  pub_high : (int, int) Hashtbl.t; (* per-router highest epoch on the board *)
  (* What the passes have left to do, so a pass visits pending work
     only: the store's windows up to [taken] have joined these sets. *)
  mutable taken : int;
  mutable to_publish : Pairs.t; (* windows not yet settled on the board *)
  mutable to_check : Pairs.t; (* windows whose epoch has no round yet *)
  mutable to_prove : Epochs.t; (* epochs not yet attempted *)
  mutable service : Prover_service.t;
  mutable lifecycle : lifecycle;
  mutable watermark : int;
  mutable gen : int; (* bumped by submit/advance/drain *)
  mutable done_gen : int; (* last gen fully processed by the worker *)
  mutable busy : bool;
  mutable paused : bool;
  mutable stopping : bool;
  mutable crashed : string option;
  mutable worker : Thread.t option;
  mutable breaker : breaker;
  mutable edge_failures : int;
  mutable accepted : int;
  mutable shed : int;
  mutable duplicates : int;
  mutable max_depth : int;
  mutable rounds_done : int;
  mutable heal_rounds : int;
  mutable drains : int;
  mutable drained : bool;
  mutable breaker_opens : int;
  mutable round_errors : (int * string) list; (* epoch -> its last round error *)
  (* query memo: (root hex | encoded query) -> proved row. Guarded by
     [memo_m]; proving itself is serialized behind [prove_m]. *)
  memo_m : Mutex.t;
  prove_m : Mutex.t;
  memo : (string, Query.result_row) Hashtbl.t;
  flows_memo : (string, Query.flows_result) Hashtbl.t;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

let c_accepted = Obs.Metric.counter "daemon.ingest.accepted"
let c_shed = Obs.Metric.counter "daemon.ingest.shed"
let c_duplicate = Obs.Metric.counter "daemon.ingest.duplicate"
let c_breaker_open = Obs.Metric.counter "daemon.breaker.opens"
let c_memo_hit = Obs.Metric.counter "daemon.query.memo_hits"
let c_memo_miss = Obs.Metric.counter "daemon.query.memo_misses"

let num n = Jsonx.Num (float_of_int n)

let emit ?router ?epoch kind attrs =
  Obs.Event.emit ?router ?epoch ~track:"daemon" kind ~attrs

(* ---- ingest ---- *)

let depth_locked t = Queue.length t.queue

let submit_locked t ~router_id ~epoch records =
  if t.stopping || t.crashed <> None || t.lifecycle = Draining then Closed
  else if Hashtbl.mem t.seen (router_id, epoch) then begin
    t.duplicates <- t.duplicates + 1;
    Obs.Metric.add c_duplicate 1;
    emit ~router:router_id ~epoch "daemon.ingest.duplicate" [];
    Duplicate
  end
  else if depth_locked t >= t.config.queue_capacity then begin
    t.shed <- t.shed + 1;
    Obs.Metric.add c_shed 1;
    emit ~router:router_id ~epoch "daemon.ingest.shed"
      [ ("reason", Jsonx.Str "queue-full"); ("depth", num (depth_locked t)) ];
    Shed
  end
  else begin
    Queue.push { router_id; epoch; records } t.queue;
    Hashtbl.replace t.seen (router_id, epoch) ();
    t.accepted <- t.accepted + 1;
    Obs.Metric.add c_accepted 1;
    t.max_depth <- max t.max_depth (depth_locked t);
    emit ~router:router_id ~epoch "daemon.ingest.accept"
      [ ("records", num (List.length records)); ("depth", num (depth_locked t)) ];
    t.gen <- t.gen + 1;
    Condition.broadcast t.cv;
    Accepted
  end

let submit t ~router_id ~epoch records =
  Mutex.lock t.m;
  let r = submit_locked t ~router_id ~epoch records in
  Mutex.unlock t.m;
  r

let submit_wait t ~router_id ~epoch records =
  Mutex.lock t.m;
  let rec go () =
    if
      t.stopping || t.crashed <> None || t.lifecycle = Draining
      || Hashtbl.mem t.seen (router_id, epoch)
      || depth_locked t < t.config.queue_capacity
    then submit_locked t ~router_id ~epoch records
    else begin
      Condition.wait t.cv t.m;
      go ()
    end
  in
  let r = go () in
  Mutex.unlock t.m;
  r

(* Also the harness's "poke": even when the watermark does not move,
   the gen bump schedules one more worker pass — needed after the
   board changed under a [publish:false] daemon (heal candidates). *)
let advance t ~epoch =
  Mutex.lock t.m;
  if epoch > t.watermark then t.watermark <- epoch;
  t.gen <- t.gen + 1;
  Condition.broadcast t.cv;
  Mutex.unlock t.m

(* ---- circuit breaker ---- *)

let breaker_allows t =
  match t.breaker with Closed_b | Half_open_b -> true | Open_b _ -> false

let breaker_open t ~edge =
  t.breaker <- Open_b breaker_cooldown;
  t.breaker_opens <- t.breaker_opens + 1;
  Obs.Metric.add c_breaker_open 1;
  emit "daemon.breaker.open"
    [ ("edge", Jsonx.Str edge); ("cooldown_passes", num breaker_cooldown) ]

let edge_failed t ~edge err =
  t.edge_failures <- t.edge_failures + 1;
  emit "daemon.edge.exhausted" [ ("edge", Jsonx.Str edge); ("error", Jsonx.Str err) ];
  match t.breaker with
  | Half_open_b -> breaker_open t ~edge
  | Closed_b when t.edge_failures >= breaker_threshold ->
    breaker_open t ~edge
  | _ -> ()

let edge_ok t =
  (match t.breaker with
  | Half_open_b ->
    t.breaker <- Closed_b;
    emit "daemon.breaker.close" []
  | _ -> ());
  t.edge_failures <- 0

let breaker_tick t =
  match t.breaker with
  | Open_b n when n <= 1 ->
    t.breaker <- Half_open_b;
    emit "daemon.breaker.half_open" []
  | Open_b n -> t.breaker <- Open_b (n - 1)
  | _ -> ()

let retry_edge t ~label f =
  Fault.Retry.with_backoff ~max_attempts:retry_attempts ~base_ms:retry_base_ms
    ~max_ms:retry_max_ms ~sleep:t.config.retry_sleep ~rng:t.retry_rng ~label f

(* ---- the worker pass ---- *)

(* Pop the whole queue; waiters blocked on a full queue get space. *)
let take_items t =
  Mutex.lock t.m;
  let rec go acc =
    if Queue.is_empty t.queue then List.rev acc else go (Queue.pop t.queue :: acc)
  in
  let items = go [] in
  if items <> [] then Condition.broadcast t.cv;
  Mutex.unlock t.m;
  items

let ingest_pass t =
  match take_items t with
  | [] -> ()
  | items -> (
    (* One retried WAL-append edge per batch. The failpoint sits
       before the inserts so a retry never double-inserts. If even the
       retry budget is exhausted the batch is shed — journalled loss,
       never a wedged queue — and the windows become submittable
       again. *)
    match
      retry_edge t ~label:"daemon.ingest" (fun () ->
          Fault.failpoint "daemon.ingest")
    with
    | Error err ->
      Mutex.lock t.m;
      List.iter
        (fun it ->
          Hashtbl.remove t.seen (it.router_id, it.epoch);
          t.shed <- t.shed + 1;
          Obs.Metric.add c_shed 1;
          emit ~router:it.router_id ~epoch:it.epoch "daemon.ingest.shed"
            [ ("reason", Jsonx.Str "io-exhausted") ])
        items;
      edge_failed t ~edge:"ingest" err;
      Mutex.unlock t.m
    | Ok () ->
      (* A window is registered even when it holds no record: the
         router committed to it, so the epoch's round must cover it. *)
      List.iter
        (fun it ->
          Db.add_window t.db ~router_id:it.router_id ~epoch:it.epoch;
          List.iter (fun r -> Db.insert t.db r) it.records)
        items;
      Db.sync t.db;
      Mutex.lock t.m;
      edge_ok t;
      Mutex.unlock t.m)

(* The windows the store created since the last pass join the pending
   sets. *)
let take_windows t =
  let n = Db.window_count t.db in
  if n > t.taken then begin
    List.iter
      (fun (router_id, epoch) ->
        t.to_publish <- Pairs.add (epoch, router_id) t.to_publish;
        t.to_check <- Pairs.add (epoch, router_id) t.to_check;
        t.to_prove <- Epochs.add epoch t.to_prove)
      (Db.windows_from t.db t.taken);
    t.taken <- n
  end

(* After a restart the service may have lost rounds and gaps that
   never reached a synced checkpoint, so every window is pending
   again. *)
let forget_pending t =
  t.taken <- 0;
  t.to_publish <- Pairs.empty;
  t.to_check <- Pairs.empty;
  t.to_prove <- Epochs.empty

(* Publish ingested windows on the routers' behalf (serve mode). The
   board enforces per-router monotone epochs, so walk epochs
   ascending; a pair the board rejects is remembered and never
   retried (its round will journal the gap instead of wedging). A
   window leaves the pending set once it is on the board, refused, or
   below its router's highest published epoch, which only grows. *)
let publish_pass t ~watermark =
  if t.config.publish then
    Pairs.iter
      (fun ((epoch, router_id) as pair) ->
        let settled () = t.to_publish <- Pairs.remove pair t.to_publish in
        let key = (router_id, epoch) in
        let monotone () =
          match Hashtbl.find_opt t.pub_high router_id with Some hi -> epoch > hi | None -> true
        in
        if epoch <= watermark then
          if Hashtbl.mem t.unpublishable key then settled ()
          else
            match Board.lookup t.board ~router_id ~epoch with
            | Some _ ->
              if monotone () then Hashtbl.replace t.pub_high router_id epoch;
              settled ()
            | None ->
              if not (monotone ()) then settled ()
              else if breaker_allows t then begin
                let window = Db.window t.db ~router_id ~epoch in
                match
                  retry_edge t
                    ~label:(Printf.sprintf "daemon.publish r%d/e%d" router_id epoch)
                    (fun () ->
                      let* () = Fault.failpoint "daemon.publish" in
                      Result.map ignore (Board.publish t.board window ~router_id ~epoch))
                with
                | Ok () ->
                  Mutex.lock t.m;
                  edge_ok t;
                  Mutex.unlock t.m;
                  Hashtbl.replace t.pub_high router_id epoch;
                  settled ()
                | Error err ->
                  Mutex.lock t.m;
                  edge_failed t ~edge:"publish" err;
                  Mutex.unlock t.m;
                  (* A plain board rejection is permanent: retrying
                     forever would wedge. Exhausted transient
                     failures stay retryable (the breaker paces
                     them). *)
                  if not (Fault.armed ()) then begin
                    Hashtbl.replace t.unpublishable key ();
                    settled ()
                  end
              end)
      t.to_publish

(* Late-arriving exports: the round for an epoch already ran, and only
   now did some router's records show up. Put the pair in the gap
   journal so heal folds it in once its commitment is published. Each
   window is checked once its epoch has a round: a window that round
   (or a heal round) covered never becomes uncovered, and [note_gap]
   keeps a noted pair. *)
let late_gap_pass t ~watermark =
  Pairs.iter
    (fun ((epoch, router_id) as pair) ->
      if epoch <= watermark && Prover_service.is_covered t.service ~epoch then begin
        if not (Prover_service.covers t.service ~router_id ~epoch) then
          ignore (Prover_service.note_gap t.service ~router_id ~epoch);
        t.to_check <- Pairs.remove pair t.to_check
      end)
    t.to_check

(* Prove closed, not-yet-attempted epochs ascending. "Attempted"
   means covered by a round OR present in the gap journal: a fully
   skipped epoch (nobody published) must be completed by heal rounds,
   not by a late full round — re-running aggregate_available after
   the commitments appear would cover the same records twice. An
   epoch stays pending until a round or the gap journal settles it. *)
let rounds_pass t ~watermark =
  Epochs.iter
    (fun epoch ->
      let settled () = t.to_prove <- Epochs.remove epoch t.to_prove in
      if epoch <= watermark then
        if Prover_service.attempted t.service ~epoch then settled ()
        else begin
          Mutex.lock t.prove_m;
          let outcome =
            Fun.protect
              ~finally:(fun () -> Mutex.unlock t.prove_m)
              (fun () -> Prover_service.aggregate_available t.service ~epoch)
          in
          match outcome with
          | Ok (Prover_service.Complete _) | Ok (Prover_service.Degraded _) ->
            Mutex.lock t.m;
            t.rounds_done <- t.rounds_done + 1;
            Mutex.unlock t.m;
            settled ()
          | Ok (Prover_service.Skipped _) -> settled ()
          | Error err ->
            Mutex.lock t.m;
            edge_failed t ~edge:"round" err;
            t.round_errors <- (epoch, err) :: List.remove_assoc epoch t.round_errors;
            Mutex.unlock t.m;
            emit ~epoch "daemon.round.error" [ ("error", Jsonx.Str err) ]
        end)
    t.to_prove

let heal_pass t =
  if Prover_service.heal_pending t.service then begin
    Mutex.lock t.prove_m;
    let outcome =
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.prove_m)
        (fun () -> Prover_service.heal t.service)
    in
    match outcome with
    | Ok rounds ->
      Mutex.lock t.m;
      t.heal_rounds <- t.heal_rounds + List.length rounds;
      Mutex.unlock t.m
    | Error err ->
      Mutex.lock t.m;
      edge_failed t ~edge:"heal" err;
      Mutex.unlock t.m;
      emit "daemon.heal.error" [ ("error", Jsonx.Str err) ]
  end

let pass t =
  let watermark =
    Mutex.lock t.m;
    let w = t.watermark in
    Mutex.unlock t.m;
    w
  in
  ingest_pass t;
  take_windows t;
  publish_pass t ~watermark;
  late_gap_pass t ~watermark;
  rounds_pass t ~watermark;
  heal_pass t;
  Mutex.lock t.m;
  breaker_tick t;
  Mutex.unlock t.m

(* ---- the worker thread ---- *)

(* Park the daemon as crashed at [site]: the checkpoint WAL's unsynced
   tail is abandoned (exactly what a real crash does to it) and the
   queue is dropped. Called with [t.m] held. *)
let park_locked t ~site =
  t.crashed <- Some site;
  Queue.clear t.queue;
  (try Prover_service.abandon t.service with _ -> ());
  emit "daemon.crash" [ ("site", Jsonx.Str site) ];
  Condition.broadcast t.cv;
  Condition.broadcast t.idle_cv

let worker_loop t =
  let continue = ref true in
  while !continue do
    Mutex.lock t.m;
    while
      (not t.stopping) && t.crashed = None
      && (t.paused || (Queue.is_empty t.queue && t.done_gen = t.gen))
    do
      t.busy <- false;
      Condition.broadcast t.idle_cv;
      Condition.wait t.cv t.m
    done;
    if t.stopping || t.crashed <> None then begin
      t.busy <- false;
      Condition.broadcast t.idle_cv;
      Mutex.unlock t.m;
      continue := false
    end
    else begin
      t.busy <- true;
      let g = t.gen in
      Mutex.unlock t.m;
      match pass t with
      | () ->
        Mutex.lock t.m;
        t.done_gen <- max t.done_gen g;
        Mutex.unlock t.m
      | exception e ->
        (* The simulated SIGKILL, or any other exception a pass raises
           (a checkpoint write failing with ENOSPC, say): everything
           volatile is gone. Parking the daemon as crashed is what
           lets [await_idle] and [drain] return instead of waiting on
           a dead worker. *)
        let site = match e with Fault.Crash site -> site | e -> Printexc.to_string e in
        Mutex.lock t.m;
        t.busy <- false;
        park_locked t ~site;
        Mutex.unlock t.m;
        continue := false
    end
  done

let derive_seen t =
  Hashtbl.reset t.seen;
  List.iter
    (fun epoch ->
      List.iter
        (fun router_id -> Hashtbl.replace t.seen (router_id, epoch) ())
        (Db.routers_for t.db ~epoch))
    (Db.epochs t.db)

let create ?(config = default_config) ?proof_params ?(seed = 0x5e17e) ?(paused = false)
    ~db ~board ~ckpt_path () =
  match Prover_service.resume ?proof_params ~db ~board ~path:ckpt_path () with
  | exception Fault.Crash site -> Error ("crashed during resume at " ^ site)
  | Error e -> Error e
  | Ok (service, restored) ->
    let t =
      {
        config;
        proof_params = Prover_service.proof_params service;
        db;
        board;
        ckpt_path;
        retry_rng = Rng.create (Int64.of_int (0xdae0 + seed));
        m = Mutex.create ();
        cv = Condition.create ();
        idle_cv = Condition.create ();
        queue = Queue.create ();
        seen = Hashtbl.create 64;
        unpublishable = Hashtbl.create 8;
        pub_high = Hashtbl.create 8;
        taken = 0;
        to_publish = Pairs.empty;
        to_check = Pairs.empty;
        to_prove = Epochs.empty;
        service;
        lifecycle = Running;
        watermark = -1;
        gen = 0;
        done_gen = 0;
        busy = false;
        paused;
        stopping = false;
        crashed = None;
        worker = None;
        breaker = Closed_b;
        edge_failures = 0;
        accepted = 0;
        shed = 0;
        duplicates = 0;
        max_depth = 0;
        rounds_done = 0;
        heal_rounds = 0;
        drains = 0;
        drained = false;
        breaker_opens = 0;
        round_errors = [];
        memo_m = Mutex.create ();
        prove_m = Mutex.create ();
        memo = Hashtbl.create 32;
        flows_memo = Hashtbl.create 8;
        memo_hits = 0;
        memo_misses = 0;
      }
    in
    derive_seen t;
    t.worker <- Some (Thread.create worker_loop t);
    emit "daemon.start" [ ("restored_rounds", num restored) ];
    Ok (t, restored)

let unpause t =
  Mutex.lock t.m;
  t.paused <- false;
  Condition.broadcast t.cv;
  Mutex.unlock t.m

let idle_locked t =
  (not t.busy) && Queue.is_empty t.queue && t.done_gen = t.gen

let await_idle t =
  Mutex.lock t.m;
  while t.crashed = None && not (idle_locked t) do
    Condition.wait t.idle_cv t.m
  done;
  let r = match t.crashed with Some site -> `Crashed site | None -> `Idle in
  Mutex.unlock t.m;
  r

let crashed t =
  Mutex.lock t.m;
  let c = t.crashed in
  Mutex.unlock t.m;
  c

let kill t ~site =
  Mutex.lock t.m;
  if t.crashed = None then park_locked t ~site;
  Mutex.unlock t.m;
  match t.worker with Some th -> Thread.join th | None -> ()

let restart t =
  Mutex.lock t.m;
  match t.crashed with
  | None ->
    Mutex.unlock t.m;
    Error "daemon: restart without a crash"
  | Some _ ->
    let old = t.worker in
    t.worker <- None;
    Mutex.unlock t.m;
    (match old with Some th -> Thread.join th | None -> ());
    (match
       Prover_service.resume ~proof_params:t.proof_params ~db:t.db
         ~board:t.board ~path:t.ckpt_path ()
     with
    | exception Fault.Crash site ->
      Mutex.lock t.m;
      t.crashed <- Some site;
      Mutex.unlock t.m;
      Error "crashed during resume"
    | Error e -> Error e
    | Ok (service, restored) ->
      Mutex.lock t.m;
      t.service <- service;
      t.crashed <- None;
      t.busy <- false;
      t.edge_failures <- 0;
      t.breaker <- Closed_b;
      Queue.clear t.queue;
      derive_seen t;
      forget_pending t;
      t.gen <- t.gen + 1;
      (* The query memos stay: each key names the root its proof
         answers, so an entry for an older root is still a correct
         answer to that key; a table is only emptied when it reaches
         [memo_cap] entries. *)
      t.worker <- Some (Thread.create worker_loop t);
      Mutex.unlock t.m;
      emit "daemon.restart" [ ("restored_rounds", num restored) ];
      Ok restored)

let drain t =
  Mutex.lock t.m;
  if t.stopping then begin
    Mutex.unlock t.m;
    Error "daemon: stopped"
  end
  else begin
    if t.lifecycle <> Draining then emit "daemon.drain.start" [];
    t.lifecycle <- Draining;
    t.watermark <- max_int;
    t.paused <- false;
    t.gen <- t.gen + 1;
    Condition.broadcast t.cv;
    while t.crashed = None && not (idle_locked t) do
      Condition.wait t.idle_cv t.m
    done;
    let r =
      match t.crashed with
      | Some site -> Error (Printf.sprintf "crashed at %s during drain" site)
      | None when t.drained -> Ok ()
      | None -> (
        (* The worker is idle and cannot leave its wait while [t.m]
           is held, so nothing else writes the journal meanwhile. *)
        match Prover_service.mark_drained t.service with
        | exception e -> Error ("drain marker: " ^ Printexc.to_string e)
        | () ->
          t.drained <- true;
          t.drains <- t.drains + 1;
          emit "daemon.drain.done"
            [ ("rounds", num t.rounds_done); ("heal_rounds", num t.heal_rounds) ];
          Ok ())
    in
    Mutex.unlock t.m;
    r
  end

let stop t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  (match t.worker with Some th -> Thread.join th | None -> ());
  t.worker <- None

(* ---- introspection ---- *)

let service t = t.service

let round_error t ~epoch =
  Mutex.lock t.m;
  let e = List.assoc_opt epoch t.round_errors in
  Mutex.unlock t.m;
  e

let root_hex t = D.to_hex (Clog.root (Prover_service.clog t.service))

type counters = {
  accepted : int;
  shed : int;
  duplicates : int;
  queue_depth : int;
  max_depth : int;
  rounds : int;
  heal_rounds : int;
  drains : int;
  breaker_opens : int;
  memo_hits : int;
  memo_misses : int;
  breaker : string;
}

let counters t =
  Mutex.lock t.m;
  let c =
    {
      accepted = t.accepted;
      shed = t.shed;
      duplicates = t.duplicates;
      queue_depth = depth_locked t;
      max_depth = t.max_depth;
      rounds = t.rounds_done;
      heal_rounds = t.heal_rounds;
      drains = t.drains;
      breaker_opens = t.breaker_opens;
      memo_hits = t.memo_hits;
      memo_misses = t.memo_misses;
      breaker =
        (match t.breaker with
        | Closed_b -> "closed"
        | Open_b _ -> "open"
        | Half_open_b -> "half-open");
    }
  in
  Mutex.unlock t.m;
  c

(* ---- memoized query front-end ---- *)

let memo_cap = 256

let encode_predicate (p : Guests.predicate) =
  let ip = function None -> "*" | Some v -> Ipaddr.to_string v in
  let int_f = function None -> "*" | Some v -> string_of_int v in
  String.concat "/"
    [ ip p.src_ip; ip p.dst_ip; int_f p.ports; int_f p.proto ]

let encode_params (p : Guests.query_params) =
  String.concat "/"
    [ encode_predicate p.predicate; Guests.op_name p.op; Guests.metric_name p.metric ]

let memo_note_hit t =
  Mutex.lock t.memo_m;
  t.memo_hits <- t.memo_hits + 1;
  Mutex.unlock t.memo_m;
  Obs.Metric.add c_memo_hit 1

let memo_note_miss t =
  Mutex.lock t.memo_m;
  t.memo_misses <- t.memo_misses + 1;
  Mutex.unlock t.memo_m;
  Obs.Metric.add c_memo_miss 1

let memo_find tbl t key =
  Mutex.lock t.memo_m;
  let r = Hashtbl.find_opt tbl key in
  Mutex.unlock t.memo_m;
  r

let memo_add tbl t key v =
  Mutex.lock t.memo_m;
  if Hashtbl.length tbl >= memo_cap then Hashtbl.reset tbl;
  Hashtbl.replace tbl key v;
  Mutex.unlock t.memo_m

(* Prove against a CLog *snapshot* (the field read is atomic enough:
   the worker replaces the whole service value only on restart, and a
   CLog is persistent) — so the memo key's root always matches the
   root the proof answers, even if a round lands mid-prove. *)
let snapshot_clog t =
  Mutex.lock t.m;
  let clog = Prover_service.clog t.service in
  Mutex.unlock t.m;
  clog

let query t params =
  let clog = snapshot_clog t in
  let key = D.to_hex (Clog.root clog) ^ "|q|" ^ encode_params params in
  match memo_find t.memo t key with
  | Some row ->
    memo_note_hit t;
    Ok (row, true)
  | None ->
    Mutex.lock t.prove_m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.prove_m)
      (fun () ->
        match memo_find t.memo t key with
        | Some row ->
          memo_note_hit t;
          Ok (row, true)
        | None ->
          memo_note_miss t;
          let* row = Query.prove ~params:t.proof_params ~clog params in
          memo_add t.memo t key row;
          Ok (row, false))

let query_flows t ~metric keys =
  let clog = snapshot_clog t in
  let key =
    D.to_hex (Clog.root clog)
    ^ "|f|" ^ Guests.metric_name metric ^ "|"
    ^ String.concat ","
        (List.map
           (fun (k : Flowkey.t) ->
             Printf.sprintf "%s:%s:%d:%d:%d" (Ipaddr.to_string k.src_ip)
               (Ipaddr.to_string k.dst_ip) k.src_port k.dst_port k.proto)
           keys)
  in
  match memo_find t.flows_memo t key with
  | Some fr ->
    memo_note_hit t;
    Ok (fr, true)
  | None ->
    Mutex.lock t.prove_m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.prove_m)
      (fun () ->
        match memo_find t.flows_memo t key with
        | Some fr ->
          memo_note_hit t;
          Ok (fr, true)
        | None ->
          memo_note_miss t;
          let* fr = Query.prove_flows ~clog ~metric keys in
          memo_add t.flows_memo t key fr;
          Ok (fr, false))

(* ---- HTTP plane ---- *)

let json status body : Httpd.response =
  { status; content_type = "application/json"; body = Jsonx.to_string body }

let bad_request msg =
  json 400 (Jsonx.Obj [ ("error", Jsonx.Str msg) ])

let parse_query_request req =
  let opt name parse =
    match Httpd.param req name with
    | None | Some "" -> Ok None
    | Some s -> Result.map Option.some (parse s)
  in
  let int_param s =
    match int_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "not an integer: %S" s)
  in
  let* src_ip = opt "src" Ipaddr.of_string in
  let* dst_ip = opt "dst" Ipaddr.of_string in
  let* ports = opt "ports" int_param in
  let* proto = opt "proto" int_param in
  let* op = Guests.op_of_name (Option.value ~default:"sum" (Httpd.param req "op")) in
  let* metric =
    Guests.metric_of_name (Option.value ~default:"packets" (Httpd.param req "metric"))
  in
  Ok { Guests.predicate = { src_ip; dst_ip; ports; proto }; op; metric }

let flowkey_of_string s =
  match String.split_on_char ':' s with
  | [ src; dst; sp; dp; pr ] -> (
    let* src_ip = Ipaddr.of_string src in
    let* dst_ip = Ipaddr.of_string dst in
    match (int_of_string_opt sp, int_of_string_opt dp, int_of_string_opt pr) with
    | Some src_port, Some dst_port, Some proto -> (
      try Ok (Flowkey.make ~src_ip ~dst_ip ~src_port ~dst_port ~proto)
      with Invalid_argument m -> Error m)
    | _ -> Error (Printf.sprintf "bad flow key %S" s))
  | _ -> Error (Printf.sprintf "bad flow key %S (want src:dst:sport:dport:proto)" s)

let parse_flow_keys t req =
  match (Httpd.param req "keys", Httpd.param req "first") with
  | Some keys, _ ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | s :: rest ->
        let* k = flowkey_of_string s in
        go (k :: acc) rest
    in
    go [] (String.split_on_char ',' keys)
  | None, Some n -> (
    match int_of_string_opt n with
    | Some n when n > 0 ->
      let entries = Clog.entries (snapshot_clog t) in
      let n = min n (Array.length entries) in
      Ok (List.init n (fun i -> entries.(i).Clog.key))
    | _ -> Error "first: want a positive integer")
  | None, None -> Error "missing keys= or first="

let status_json t =
  let c = counters t in
  let svc = t.service in
  Jsonx.Obj
    [
      ("schema", Jsonx.Str "zkflow-daemon-status/v1");
      ("root", Jsonx.Str (root_hex t));
      ("entries", num (Clog.length (Prover_service.clog svc)));
      ("rounds", num (List.length (Prover_service.rounds svc)));
      ("open_gaps", num (List.length (Prover_service.open_gaps svc)));
      ("queue_depth", num c.queue_depth);
      ("max_depth", num c.max_depth);
      ("accepted", num c.accepted);
      ("shed", num c.shed);
      ("duplicates", num c.duplicates);
      ("heal_rounds", num c.heal_rounds);
      ("drains", num c.drains);
      ("breaker", Jsonx.Str c.breaker);
      ("breaker_opens", num c.breaker_opens);
      ( "memo",
        Jsonx.Obj [ ("hits", num c.memo_hits); ("misses", num c.memo_misses) ] );
      ( "crashed",
        match crashed t with
        | Some site -> Jsonx.Str site
        | None -> Jsonx.Bool false );
    ]

let index_response =
  json 200
    (Jsonx.Obj
       [
         ("schema", Jsonx.Str "zkflow-serve/v1");
         ( "endpoints",
           Jsonx.Arr
             (List.map
                (fun s -> Jsonx.Str s)
                [ "/status"; "/healthz"; "/metrics"; "/slo"; "/query"; "/flows" ])
         );
       ])

let handler t : Httpd.handler =
  let base = Watch.handler (Watch.live_source ()) in
  fun req ->
    match req.Httpd.path with
    | "/" -> Some index_response
    | "/status" -> Some (json 200 (status_json t))
    | "/query" -> (
      match parse_query_request req with
      | Error msg -> Some (bad_request msg)
      | Ok params -> (
        match query t params with
        | Error msg -> Some (json 500 (Jsonx.Obj [ ("error", Jsonx.Str msg) ]))
        | Ok (row, cached) ->
          let j = row.Query.journal in
          Some
            (json 200
               (Jsonx.Obj
                  [
                    ("schema", Jsonx.Str "zkflow-daemon-query/v1");
                    ("root", Jsonx.Str (D.to_hex j.Guests.root));
                    ("result", num j.Guests.result);
                    ("matches", num j.Guests.matches);
                    ("op", Jsonx.Str (Guests.op_name params.Guests.op));
                    ("metric", Jsonx.Str (Guests.metric_name params.Guests.metric));
                    ("cached", Jsonx.Bool cached);
                    ("cycles", num row.Query.cycles);
                  ]))))
    | "/flows" -> (
      match parse_flow_keys t req with
      | Error msg -> Some (bad_request msg)
      | Ok [] -> Some (bad_request "no flow keys")
      | Ok keys -> (
        match
          let* metric =
            Guests.metric_of_name
              (Option.value ~default:"bytes" (Httpd.param req "metric"))
          in
          query_flows t ~metric keys
        with
        | Error msg -> Some (json 500 (Jsonx.Obj [ ("error", Jsonx.Str msg) ]))
        | Ok (fr, cached) ->
          Some
            (json 200
               (Jsonx.Obj
                  [
                    ("schema", Jsonx.Str "zkflow-daemon-flows/v1");
                    ("root", Jsonx.Str (D.to_hex fr.Query.root));
                    ("metric", Jsonx.Str (Guests.metric_name fr.Query.metric));
                    ("count", num (List.length fr.Query.rows));
                    ("total", num fr.Query.total);
                    ("cached", Jsonx.Bool cached);
                    ( "rows",
                      Jsonx.Arr
                        (List.map
                           (fun (r : Query.flow_row) ->
                             Jsonx.Obj
                               [ ("index", num r.index); ("value", num r.value) ])
                           fr.Query.rows) );
                  ]))))
    | _ -> base req
