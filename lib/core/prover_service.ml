module Db = Zkflow_store.Db
module Wal = Zkflow_store.Wal
module Board = Zkflow_commitlog.Board
module Commitment = Zkflow_commitlog.Commitment
module Obs = Zkflow_obs
module Jsonx = Zkflow_util.Jsonx
module Rng = Zkflow_util.Rng
module Fault = Zkflow_fault.Fault
module D = Zkflow_hash.Digest32

type gap = {
  router_id : int;
  epoch : int;
  detected_round : int;
  healed_round : int option;
}

type coverage = { epoch : int; routers : int list; degraded : bool; heal : bool }

type outcome =
  | Complete of Aggregate.round
  | Degraded of Aggregate.round * gap list
  | Skipped of gap list

type checkpointer = { path : string; mutable wal : Wal.t }

type t = {
  proof_params : Zkflow_zkproof.Params.t;
  db : Db.t;
  board : Board.t;
  retry_rng : Rng.t;
  mutable clog : Clog.t;
  mutable rounds_rev : Aggregate.round list;
  mutable coverage_rev : coverage list;
  mutable gaps : gap list; (* oldest first *)
  mutable ckpt : checkpointer option;
}

let create ?(proof_params = Zkflow_zkproof.Params.default) ~db ~board () =
  {
    proof_params;
    db;
    board;
    retry_rng = Rng.create 0xbac0ffL;
    clog = Clog.empty;
    rounds_rev = [];
    coverage_rev = [];
    gaps = [];
    ckpt = None;
  }

let clog t = t.clog
let proof_params t = t.proof_params
let rounds t = List.rev t.rounds_rev
let coverage t = List.rev t.coverage_rev
let latest_root t = Clog.root t.clog
let gaps t = t.gaps

let open_gaps t =
  List.filter_map
    (fun (g : gap) -> if g.healed_round = None then Some (g.router_id, g.epoch) else None)
    t.gaps

let covered_epochs t =
  List.filter_map (fun c -> if c.heal then None else Some c.epoch) (coverage t)
  |> List.sort_uniq Int.compare

let ( let* ) = Result.bind

(* Pre-prove gate: every proving path runs the static analyzer over the
   guest first and refuses to spend cycles on a defective program, or
   on one whose proven cycle bound exceeds what the machine would ever
   execute (override with ZKFLOW_NO_ANALYZE=1). Reports are memoized
   per image ID, so the per-round cost after the first call is one
   hash lookup. *)
let gate ~subject program =
  Zkflow_analysis.gate ~subject
    ~budget:Zkflow_zkvm.Machine.default_max_cycles program

let prove_custom ?(proof_params = Zkflow_zkproof.Params.default)
    ?(subject = "custom guest") program ~input =
  let* () = gate ~subject program in
  Zkflow_zkproof.Prove.prove ~params:proof_params program ~input

type publish_report = { published : Commitment.t list; skipped : int list }

(* Idempotent: a partially-published epoch (the process died after
   some routers' publications landed) re-runs cleanly — pairs already
   on the board are skipped and reported, never re-attempted, so the
   board's reject path is reserved for genuine protocol violations. *)
let publish_epoch t ~epoch =
  let rec go pub skipped = function
    | [] -> Ok { published = List.rev pub; skipped = List.rev skipped }
    | router_id :: rest -> (
      match Board.lookup t.board ~router_id ~epoch with
      | Some _ -> go pub (router_id :: skipped) rest
      | None ->
        let records = Db.window t.db ~router_id ~epoch in
        let* c = Board.publish t.board records ~router_id ~epoch in
        go (c :: pub) skipped rest)
  in
  go [] [] (Db.routers t.db)

(* Epochs the routers have materialized but the service has not yet
   aggregated — the service's backlog, reported on every round event
   so a health report can plot queue depth over time. *)
let queue_depth t =
  max 0 (List.length (Db.epochs t.db) - List.length (covered_epochs t))

(* ---- checkpoint rows ----

   One WAL row per aggregation round: coverage metadata, the receipt,
   the post-round CLog entries, the guest cycle count, a snapshot of
   the gap journal, and (since v2) a compact snapshot of the CLog's
   Merkle node store, all behind a SHA-256 checksum so recovery can
   tell a bit-flipped row from an honest one. A torn tail (partial
   row) is already dropped by Wal.replay; a corrupt row drops itself
   and everything after it, and the dropped suffix is re-proved. The
   node snapshot keeps resume incremental: without it, the restored
   CLog would silently fall back to a full O(n) tree rebuild, and
   every round after the restart would re-pay it. *)

module Wire = Zkflow_util.Wire

let ckpt_magic = "zkflow.ckpt.v2"
let ckpt_magic_v1 = "zkflow.ckpt.v1"

let w_entries w clog =
  Wire.w_array w
    (fun (e : Clog.entry) ->
      Array.iter (fun word -> Wire.w_int w word) (Clog.entry_words e))
    (Clog.entries clog)

let r_entry_array r =
  Wire.r_array r (fun () ->
      let words = Array.init 8 (fun _ -> Wire.r_int r) in
      match Clog.entry_of_words words with
      | Ok e -> e
      | Error msg -> raise (Wire.Decode msg))

let r_entries r =
  match Clog.of_entries (r_entry_array r) with
  | Ok clog -> clog
  | Error msg -> raise (Wire.Decode msg)

let w_coverage w (c : coverage) =
  Wire.w_int w c.epoch;
  Wire.w_list w (fun r -> Wire.w_int w r) c.routers;
  Wire.w_bool w c.degraded;
  Wire.w_bool w c.heal

let r_coverage r =
  let epoch = Wire.r_int r in
  let routers = Wire.r_list r (fun () -> Wire.r_int r) in
  let degraded = Wire.r_bool r in
  let heal = Wire.r_bool r in
  { epoch; routers; degraded; heal }

let w_gap w (g : gap) =
  Wire.w_int w g.router_id;
  Wire.w_int w g.epoch;
  Wire.w_int w g.detected_round;
  match g.healed_round with
  | None -> Wire.w_bool w false
  | Some ix ->
    Wire.w_bool w true;
    Wire.w_int w ix

let r_gap r =
  let router_id = Wire.r_int r in
  let epoch = Wire.r_int r in
  let detected_round = Wire.r_int r in
  let healed_round = if Wire.r_bool r then Some (Wire.r_int r) else None in
  { router_id; epoch; detected_round; healed_round }

let restore_round receipt_bytes round_clog cycles =
  let receipt =
    match Zkflow_zkproof.Receipt.decode receipt_bytes with
    | Ok receipt -> receipt
    | Error msg -> raise (Wire.Decode msg)
  in
  let journal =
    match
      Guests.parse_aggregation_journal
        receipt.Zkflow_zkproof.Receipt.claim.Zkflow_zkproof.Receipt.journal
    with
    | Ok j -> j
    | Error msg -> raise (Wire.Decode msg)
  in
  {
    Aggregate.receipt;
    journal;
    clog = round_clog;
    cycles;
    execute_s = 0.;
    prove_s = 0.;
    restored = true;
  }

let encode_ckpt_row ~cov ~gaps (round : Aggregate.round) =
  let w = Wire.writer () in
  Wire.w_string w ckpt_magic;
  w_coverage w cov;
  Wire.w_bytes w (Zkflow_zkproof.Receipt.encode round.Aggregate.receipt);
  w_entries w round.Aggregate.clog;
  Wire.w_int w round.Aggregate.cycles;
  Wire.w_list w (w_gap w) gaps;
  (* v2: the post-round Merkle node store, verbatim. The row checksum
     below covers it, so the restore can adopt the nodes without
     re-hashing a single leaf. *)
  Wire.w_bytes w (Clog.tree_snapshot round.Aggregate.clog);
  let payload = Wire.contents w in
  Bytes.cat (D.to_bytes (D.hash_bytes payload)) payload

let decode_ckpt_row row =
  if Bytes.length row < 32 then Error "checkpoint row: too short"
  else begin
    let digest = Bytes.sub row 0 32 in
    let payload = Bytes.sub row 32 (Bytes.length row - 32) in
    if not (D.equal (D.of_bytes digest) (D.hash_bytes payload)) then
      Error "checkpoint row: checksum mismatch"
    else
      Wire.decode payload (fun r ->
          let magic = Wire.r_string r in
          if magic <> ckpt_magic && magic <> ckpt_magic_v1 then
            raise (Wire.Decode "checkpoint row: bad magic");
          let cov = r_coverage r in
          let receipt_bytes = Wire.r_bytes r in
          let entries = r_entry_array r in
          let cycles = Wire.r_int r in
          let gaps = Wire.r_list r (fun () -> r_gap r) in
          let round_clog =
            if magic = ckpt_magic then
              (* v2: adopt the persisted node store — no rebuild. *)
              match Clog.of_entries_with_snapshot entries ~snapshot:(Wire.r_bytes r) with
              | Ok clog -> clog
              | Error msg -> raise (Wire.Decode msg)
            else
              (* v1 rows predate node snapshots; the restored CLog
                 rebuilds its tree lazily (cold resume). *)
              match Clog.of_entries entries with
              | Ok clog -> clog
              | Error msg -> raise (Wire.Decode msg)
          in
          (cov, restore_round receipt_bytes round_clog cycles, gaps))
  end

let with_checkpoints t ~path = t.ckpt <- Some { path; wal = Wal.open_log path }

let checkpoint_path t = Option.map (fun c -> c.path) t.ckpt

let abandon t =
  match t.ckpt with
  | None -> ()
  | Some c -> Wal.abandon c.wal

let checkpoint_append t ~cov ~gaps round =
  match t.ckpt with
  | None -> ()
  | Some c ->
    Wal.append c.wal (encode_ckpt_row ~cov ~gaps round);
    Fault.crashpoint "ckpt.pre_sync";
    Wal.sync c.wal;
    Fault.crashpoint "ckpt.post_sync"

(* ---- aggregation rounds ---- *)

(* Transient store/board read failures (network blips between the
   off-path prover and the shared store) retry on a bounded, seeded
   exponential backoff instead of failing the round. *)
let fetch_commitment t ~router_id ~epoch =
  Fault.Retry.with_backoff ~rng:t.retry_rng
    ~label:(Printf.sprintf "fetch r%d/e%d" router_id epoch)
    (fun () ->
      let* () = Fault.failpoint "agg.fetch" in
      Ok (Board.lookup t.board ~router_id ~epoch))

let gap_known t ~router_id ~epoch =
  List.exists (fun (g : gap) -> g.router_id = router_id && g.epoch = epoch) t.gaps

(* A late-arriving export: the round for [epoch] already ran without
   [router_id] (its records were not in the store at round time, so no
   gap was recorded), and the records only showed up afterwards. The
   daemon calls this to put the pair into the gap journal so the heal
   machinery picks it up once its commitment is on the board. The gap
   reaches durable state with the next checkpoint row; until then a
   crash loses it, but detection is idempotent — the records are in
   the store, so the caller re-detects it after resume. *)
let note_gap t ~router_id ~epoch =
  if gap_known t ~router_id ~epoch then false
  else begin
    let round_ix = List.length t.rounds_rev in
    t.gaps <-
      t.gaps @ [ { router_id; epoch; detected_round = round_ix; healed_round = None } ];
    Obs.Event.emit ~router:router_id ~epoch ~round:round_ix ~track:"prover"
      "prover.gap.open";
    true
  end

(* The shared tail of every aggregation entry point: prove the round
   over [batches], checkpoint it together with its coverage record and
   the updated gap journal, then advance the in-memory state. Crash
   sites bracket the checkpoint write; recovery re-proves anything
   that did not reach a synced row, and determinism guarantees the
   re-proved round is bit-identical.

   A heal round marks its gaps healed {e inside its own checkpoint
   row}: if the marking were deferred to the next row, a crash right
   after the heal round would resume with the gaps still open and
   re-heal them — aggregating the same records twice. *)
let prove_and_commit t ~epoch ~routers ~absent ~heal batches =
  let round_ix = List.length t.rounds_rev in
  Fault.crashpoint "agg.pre_prove";
  let t_agg = Obs.Span.start () in
  let round = Aggregate.prove_round ~params:t.proof_params ~prev:t.clog batches in
  if t_agg <> 0 then
    Obs.Span.finish "round.aggregate" ~args:[ ("epoch", epoch) ] t_agg;
  let* round = round in
  let cov = { epoch; routers; degraded = absent <> []; heal } in
  let base_gaps =
    if not heal then t.gaps
    else
      List.map
        (fun (g : gap) ->
          if g.healed_round = None && g.epoch = epoch && List.mem g.router_id routers
          then { g with healed_round = Some round_ix }
          else g)
        t.gaps
  in
  let new_gaps =
    List.filter_map
      (fun router_id ->
        if gap_known t ~router_id ~epoch then None
        else Some { router_id; epoch; detected_round = round_ix; healed_round = None })
      absent
  in
  let gaps' = base_gaps @ new_gaps in
  Fault.crashpoint "agg.pre_checkpoint";
  checkpoint_append t ~cov ~gaps:gaps' round;
  Fault.crashpoint "agg.post_checkpoint";
  t.clog <- round.Aggregate.clog;
  t.rounds_rev <- round :: t.rounds_rev;
  t.coverage_rev <- cov :: t.coverage_rev;
  t.gaps <- gaps';
  List.iter
    (fun (g : gap) ->
      Obs.Event.emit ~router:g.router_id ~epoch ~round:round_ix ~track:"prover"
        "prover.gap.open")
    new_gaps;
  Ok (round, new_gaps)

(* The per-round latency histograms the time-series sampler snapshots:
   these are what turn "each round took N ns" into a queryable history
   ([monitor]'s round-latency trend, the /metrics window percentiles). *)
let h_round_ns = Obs.Metric.histogram "prover.round_ns"
let h_prove_ns = Obs.Metric.histogram "prover.prove_ns"

let round_done_event t ~epoch ~round_ix ~covered ~missing ~heal
    (round : Aggregate.round) =
  let prove_ns = int_of_float (Float.round (round.Aggregate.prove_s *. 1e9)) in
  let execute_ns = int_of_float (Float.round (round.Aggregate.execute_s *. 1e9)) in
  Obs.Metric.observe h_round_ns (prove_ns + execute_ns);
  Obs.Metric.observe h_prove_ns prove_ns;
  Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.done"
    ~attrs:
      [
        ("cycles", Jsonx.Num (float_of_int round.Aggregate.cycles));
        ("entries", Jsonx.Num (float_of_int (Clog.length round.Aggregate.clog)));
        ("prove_ns", Jsonx.Num (Float.round (round.Aggregate.prove_s *. 1e9)));
        ("execute_ns", Jsonx.Num (Float.round (round.Aggregate.execute_s *. 1e9)));
        ("queue_depth", Jsonx.Num (float_of_int (queue_depth t)));
        ("covered", Jsonx.Num (float_of_int covered));
        ("missing", Jsonx.Num (float_of_int missing));
        ("heal", Jsonx.Num (if heal then 1. else 0.));
      ]

let fetch_batches t ~epoch routers =
  let t_fetch = Obs.Span.start () in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | router_id :: rest -> (
      let* c = fetch_commitment t ~router_id ~epoch in
      match c with
      | None ->
        Error
          (Printf.sprintf
             "aggregate: router %d has no published commitment for epoch %d"
             router_id epoch)
      | Some c ->
        let records = Db.window t.db ~router_id ~epoch in
        collect ((c.Commitment.batch, records) :: acc) rest)
  in
  let batches = collect [] routers in
  if t_fetch <> 0 then Obs.Span.finish "round.fetch" t_fetch;
  batches

let gate_aggregation () =
  let t_gate = Obs.Span.start () in
  let gated =
    gate ~subject:"aggregation guest" (Lazy.force Guests.aggregation_program)
  in
  if t_gate <> 0 then Obs.Span.finish "round.gate" t_gate;
  gated

(* Strict mode: every router known to the store must have published —
   the pre-chaos contract, still the right default for `zkflow prove`
   over a fully-simulated state directory. *)
let aggregate_epoch t ~epoch =
  let round_ix = List.length t.rounds_rev in
  Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.start"
    ~attrs:[ ("queue_depth", Jsonx.Num (float_of_int (queue_depth t))) ];
  let result =
    let routers = Db.routers t.db in
    let* batches = fetch_batches t ~epoch routers in
    let* () = gate_aggregation () in
    let* round, _ = prove_and_commit t ~epoch ~routers ~absent:[] ~heal:false batches in
    Ok round
  in
  match result with
  | Error e ->
    Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.error"
      ~attrs:[ ("detail", Jsonx.Str e) ];
    Error e
  | Ok round ->
    round_done_event t ~epoch ~round_ix
      ~covered:(List.length (Db.routers t.db))
      ~missing:0 ~heal:false round;
    Ok round

(* Degraded mode: the round proceeds over the routers whose commitment
   is actually on the board; everyone else becomes a named entry in
   the gap journal, to be folded in by a later heal round. The service
   keeps making progress while a router lags — the paper's off-path
   decoupling taken seriously. *)
let aggregate_available t ~epoch =
  let round_ix = List.length t.rounds_rev in
  Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.start"
    ~attrs:[ ("queue_depth", Jsonx.Num (float_of_int (queue_depth t))) ];
  let expected = Db.routers_for t.db ~epoch in
  let result =
    let rec split present absent = function
      | [] -> Ok (List.rev present, List.rev absent)
      | router_id :: rest ->
        let* c = fetch_commitment t ~router_id ~epoch in
        (match c with
        | Some _ -> split (router_id :: present) absent rest
        | None -> split present (router_id :: absent) rest)
    in
    let* present, absent = split [] [] expected in
    match present with
    | [] ->
      let new_gaps =
        List.filter_map
          (fun router_id ->
            if gap_known t ~router_id ~epoch then None
            else
              Some { router_id; epoch; detected_round = round_ix; healed_round = None })
          absent
      in
      t.gaps <- t.gaps @ new_gaps;
      List.iter
        (fun (g : gap) ->
          Obs.Event.emit ~router:g.router_id ~epoch ~round:round_ix ~track:"prover"
            "prover.gap.open")
        new_gaps;
      Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.skipped"
        ~attrs:[ ("missing", Jsonx.Num (float_of_int (List.length absent))) ];
      Ok (Skipped new_gaps)
    | _ ->
      let* batches = fetch_batches t ~epoch present in
      let* () = gate_aggregation () in
      let* round, new_gaps =
        prove_and_commit t ~epoch ~routers:present ~absent ~heal:false batches
      in
      round_done_event t ~epoch ~round_ix ~covered:(List.length present)
        ~missing:(List.length absent) ~heal:false round;
      if absent = [] then Ok (Complete round) else Ok (Degraded (round, new_gaps))
  in
  match result with
  | Error e ->
    Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.error"
      ~attrs:[ ("detail", Jsonx.Str e) ];
    Error e
  | ok -> ok

(* Heal: fold every straggler whose commitment has since appeared on
   the board into a catch-up round (one per epoch, ascending), and
   mark its gap healed. Gaps whose commitment is still missing stay
   open — `zkflow monitor --strict` keeps shouting about them. *)
let heal t =
  let healable =
    List.filter
      (fun (g : gap) ->
        g.healed_round = None
        && Board.lookup t.board ~router_id:g.router_id ~epoch:g.epoch <> None)
      t.gaps
  in
  let epochs =
    List.sort_uniq Int.compare (List.map (fun (g : gap) -> g.epoch) healable)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | epoch :: rest ->
      let routers =
        List.filter_map
          (fun (g : gap) -> if g.epoch = epoch then Some g.router_id else None)
          healable
        |> List.sort_uniq Int.compare
      in
      let round_ix = List.length t.rounds_rev in
      Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.start"
        ~attrs:[ ("queue_depth", Jsonx.Num (float_of_int (queue_depth t))) ];
      let result =
        let* batches = fetch_batches t ~epoch routers in
        let* () = gate_aggregation () in
        let* round, _ =
          prove_and_commit t ~epoch ~routers ~absent:[] ~heal:true batches
        in
        Ok round
      in
      (match result with
      | Error e ->
        Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.error"
          ~attrs:[ ("detail", Jsonx.Str e) ];
        Error e
      | Ok round ->
        List.iter
          (fun router_id ->
            Obs.Event.emit ~router:router_id ~epoch ~round:round_ix ~track:"prover"
              "prover.gap.heal")
          routers;
        round_done_event t ~epoch ~round_ix ~covered:(List.length routers)
          ~missing:0 ~heal:true round;
        go (round :: acc) rest)
  in
  go [] epochs

let heal_pending t =
  List.exists
    (fun (g : gap) ->
      g.healed_round = None
      && Board.lookup t.board ~router_id:g.router_id ~epoch:g.epoch <> None)
    t.gaps

(* ---- disclosure ---- *)

type disclosure = {
  indices : int list;
  entries : Clog.entry list;
  proof : Zkflow_merkle.Multiproof.t;
}

let disclose t ~keys =
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | key :: rest -> (
      match Clog.find t.clog key with
      | Some (i, e) -> collect ((i, e) :: acc) rest
      | None ->
        Error
          (Format.asprintf "disclose: flow %a not in the CLog"
             Zkflow_netflow.Flowkey.pp key))
  in
  let* found = collect [] keys in
  match found with
  | [] -> Error "disclose: no keys given"
  | _ ->
    let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) found in
    let indices = List.map fst sorted in
    let entries = List.map snd sorted in
    let proof = Zkflow_merkle.Multiproof.prove (Clog.tree t.clog) indices in
    Ok { indices; entries; proof }

let query_flows t ~metric keys = Query.prove_flows ~clog:t.clog ~metric keys

(* ---- persistence ---- *)

let service_magic = "zkflow.service.v2"

let save t =
  (* A v1-loaded service has rounds but no coverage records; pad with
     neutral full-coverage entries so re-saving it round-trips. *)
  let rec pair rounds covs =
    match (rounds, covs) with
    | [], _ -> []
    | r :: rs, c :: cs -> (r, c) :: pair rs cs
    | r :: rs, [] ->
      (r, { epoch = 0; routers = []; degraded = false; heal = false })
      :: pair rs []
  in
  let w = Wire.writer () in
  Wire.w_string w service_magic;
  w_entries w t.clog;
  Wire.w_list w
    (fun ((round : Aggregate.round), cov) ->
      Wire.w_bytes w (Zkflow_zkproof.Receipt.encode round.Aggregate.receipt);
      w_entries w round.Aggregate.clog;
      Wire.w_int w round.Aggregate.cycles;
      w_coverage w cov)
    (pair (rounds t) (coverage t));
  Wire.w_list w (w_gap w) t.gaps;
  Wire.contents w

let load ?proof_params ~db ~board bytes =
  Wire.decode bytes (fun r ->
      let magic = Wire.r_string r in
      let v1 = magic = "zkflow.service.v1" in
      if (not v1) && magic <> service_magic then
        raise (Wire.Decode "service state: bad magic");
      let clog = r_entries r in
      let rounds_cov =
        Wire.r_list r (fun () ->
            let receipt_bytes = Wire.r_bytes r in
            let round_clog = r_entries r in
            let cycles = Wire.r_int r in
            let cov = if v1 then None else Some (r_coverage r) in
            (restore_round receipt_bytes round_clog cycles, cov))
      in
      let gaps = if v1 then [] else Wire.r_list r (fun () -> r_gap r) in
      let t = create ?proof_params ~db ~board () in
      t.clog <- clog;
      t.rounds_rev <- List.rev_map fst rounds_cov;
      t.coverage_rev <- List.rev (List.filter_map snd rounds_cov);
      t.gaps <- gaps;
      t)

(* v1 files interleave receipt/entries/cycles without coverage — keep
   decoding them so a pre-chaos service.bin still loads (its coverage
   list is simply empty). The saver always writes v2. *)

(* ---- crash recovery ---- *)

(* Rebuild a service from its checkpoint journal: replay the WAL (torn
   tail already dropped), keep the longest prefix of rows that pass
   their checksum and decode, and — when anything was dropped —
   compact the file down to that prefix so future appends land after
   clean data. The dropped suffix is simply re-proved: aggregation is
   deterministic, so the re-proved rounds are bit-identical to the
   ones the crash destroyed. *)
let resume ?proof_params ~db ~board ~path () =
  (* A cold start (no journal yet) is not a restart: the
     ["prover.resume"] event — what the prover-restarts SLO counts —
     is only emitted when there was a previous session's journal to
     resume over. *)
  let journal_existed = Sys.file_exists path in
  match Wal.replay path with
  | Error e -> Error ("resume: " ^ e)
  | Ok rows ->
    let file_size =
      if not (Sys.file_exists path) then 0
      else begin
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        close_in ic;
        n
      end
    in
    let rec scan good kept_bytes dropped = function
      | [] -> (List.rev good, kept_bytes, dropped)
      | row :: rest -> (
        match decode_ckpt_row row with
        | Ok decoded ->
          scan ((decoded, row) :: good) (kept_bytes + 4 + Bytes.length row) dropped rest
        | Error _ -> (List.rev good, kept_bytes, dropped + 1 + List.length rest))
    in
    let good, kept_bytes, dropped_rows = scan [] 0 0 rows in
    if kept_bytes < file_size then
      Wal.rewrite path (List.map snd good);
    let t = create ?proof_params ~db ~board () in
    List.iter
      (fun ((cov, round, gaps), _) ->
        t.clog <- round.Aggregate.clog;
        t.rounds_rev <- round :: t.rounds_rev;
        t.coverage_rev <- cov :: t.coverage_rev;
        t.gaps <- gaps)
      good;
    with_checkpoints t ~path;
    let restored = List.length good in
    if journal_existed then
      Obs.Event.emit ~track:"prover" "prover.resume"
        ~attrs:
          [
            ("restored_rounds", Jsonx.Num (float_of_int restored));
            ("dropped_rows", Jsonx.Num (float_of_int dropped_rows));
            ("open_gaps", Jsonx.Num (float_of_int (List.length (open_gaps t))));
          ];
    (* A crash between the last row's sync and its round's own
       ["prover.gap.open"] leaves the gaps that row detected in the
       journal but never in the event log: re-announce those. Earlier
       rows were announced before the next round began. A repeat of an
       announcement that was not lost counts once: the monitor and the
       SLO engine both key gap opens by router and epoch. *)
    List.iter
      (fun (g : gap) ->
        if g.healed_round = None && g.detected_round = restored - 1 then
          Obs.Event.emit ~router:g.router_id ~epoch:g.epoch ~round:g.detected_round
            ~track:"prover" "prover.gap.open")
      t.gaps;
    Ok (t, restored)

(* ---- round summaries ---- *)

type round_summary = {
  index : int;
  entries : int;
  root : string;
  cycles : int;
  execute_s : float;
  prove_s : float;
  restored : bool;
}

let summarize_round i (r : Aggregate.round) =
  {
    index = i;
    entries = Clog.length r.Aggregate.clog;
    root = Zkflow_hash.Digest32.to_hex (Clog.root r.Aggregate.clog);
    cycles = r.Aggregate.cycles;
    execute_s = r.Aggregate.execute_s;
    prove_s = r.Aggregate.prove_s;
    restored = r.Aggregate.restored;
  }

let summaries t = List.mapi summarize_round (rounds t)

let gap_json (g : gap) =
  Jsonx.Obj
    [
      ("router", Jsonx.Num (float_of_int g.router_id));
      ("epoch", Jsonx.Num (float_of_int g.epoch));
      ("detected_round", Jsonx.Num (float_of_int g.detected_round));
      ( "healed_round",
        match g.healed_round with
        | Some ix -> Jsonx.Num (float_of_int ix)
        | None -> Jsonx.Null );
    ]

let summary_json t =
  let covs = coverage t in
  let cov_at i = List.nth_opt covs i in
  let round_obj i s =
    let base =
      [
        ("index", Jsonx.Num (float_of_int s.index));
        ("entries", Jsonx.Num (float_of_int s.entries));
        ("root", Jsonx.Str s.root);
        ("cycles", Jsonx.Num (float_of_int s.cycles));
        ("execute_s", Jsonx.Num s.execute_s);
        ("prove_s", Jsonx.Num s.prove_s);
        ("restored", Jsonx.Bool s.restored);
      ]
    in
    let cov_fields =
      match cov_at i with
      | None -> []
      | Some c ->
        [
          ("epoch", Jsonx.Num (float_of_int c.epoch));
          ("routers", Jsonx.Arr (List.map (fun r -> Jsonx.Num (float_of_int r)) c.routers));
          ("degraded", Jsonx.Bool c.degraded);
          ("heal", Jsonx.Bool c.heal);
        ]
    in
    Jsonx.Obj (base @ cov_fields)
  in
  let cycle_percentiles =
    match List.map (fun s -> s.cycles) (summaries t) with
    | [] -> Jsonx.Null
    | cycles ->
      let snap = Obs.Metric.snapshot_of_values cycles in
      let p q = float_of_int (Obs.Metric.percentile snap q) in
      Jsonx.Obj
        [
          ("p50", Jsonx.Num (p 0.50));
          ("p95", Jsonx.Num (p 0.95));
          ("p99", Jsonx.Num (p 0.99));
          ("max", Jsonx.Num (float_of_int snap.Obs.Metric.max_value));
        ]
  in
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("entries", Jsonx.Num (float_of_int (Clog.length t.clog)));
         ("root", Jsonx.Str (Zkflow_hash.Digest32.to_hex (Clog.root t.clog)));
         ( "proof_params",
           Jsonx.Obj
             [
               ( "queries",
                 Jsonx.Num
                   (float_of_int t.proof_params.Zkflow_zkproof.Params.queries) );
               ( "soundness_bits",
                 Jsonx.Num (Zkflow_zkproof.Params.soundness_bits t.proof_params)
               );
             ] );
         ("rounds", Jsonx.Arr (List.mapi round_obj (summaries t)));
         ("round_cycles", cycle_percentiles);
         ("gaps", Jsonx.Arr (List.map gap_json t.gaps));
         ( "open_gaps",
           Jsonx.Num (float_of_int (List.length (open_gaps t))) );
       ])

let query t params =
  let* () = gate ~subject:"query guest" (Lazy.force Guests.query_program) in
  Query.prove ~params:t.proof_params ~clog:t.clog params

let query_at t ~round params =
  let rounds = List.rev t.rounds_rev in
  match List.nth_opt rounds round with
  | None -> Error (Printf.sprintf "query_at: no round %d (have %d)" round (List.length rounds))
  | Some r ->
    let* () = gate ~subject:"query guest" (Lazy.force Guests.query_program) in
    Query.prove ~params:t.proof_params ~clog:r.Aggregate.clog params
