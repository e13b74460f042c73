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

type t = {
  proof_params : Zkflow_zkproof.Params.t;
  db : Db.t;
  board : Board.t;
  retry_rng : Rng.t;
  mutable clog : Clog.t;
  mutable rounds_rev : Aggregate.round list;
  mutable coverage_rev : coverage list;
  covered : (int, unit) Hashtbl.t; (* the epochs of non-heal coverage *)
  covered_pairs : (int * int, unit) Hashtbl.t; (* (router, epoch) of any coverage *)
  mutable gaps : gap list; (* oldest first *)
  mutable ckpt : Wal.t option; (* the checkpoint journal, when on *)
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
    covered = Hashtbl.create 64;
    covered_pairs = Hashtbl.create 64;
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

let add_coverage t (cov : coverage) =
  t.coverage_rev <- cov :: t.coverage_rev;
  if not cov.heal then Hashtbl.replace t.covered cov.epoch ();
  List.iter (fun r -> Hashtbl.replace t.covered_pairs (r, cov.epoch) ()) cov.routers

let is_covered t ~epoch = Hashtbl.mem t.covered epoch
let covers t ~router_id ~epoch = Hashtbl.mem t.covered_pairs (router_id, epoch)

let attempted t ~epoch =
  is_covered t ~epoch || List.exists (fun (g : gap) -> g.epoch = epoch) t.gaps

let ( let* ) = Result.bind

(* A program that arrives from outside (a compiled Zirc query) is
   analyzed first, and one with a defect is refused before any cycle
   is spent. The built-in guests are fixed at build time, so their
   rounds and queries are not gated. *)
let prove_custom ?(proof_params = Zkflow_zkproof.Params.default)
    ?(subject = "custom guest") program ~input =
  let* () = Zkflow_analysis.gate ~subject program in
  Zkflow_zkproof.Prove.prove ~params:proof_params program ~input

type publish_report = { published : Commitment.t list; skipped : int list }

(* Idempotent: a partially-published epoch (the process died after
   some routers' publications landed) re-runs cleanly — pairs already
   on the board are skipped and reported, never re-attempted, so the
   board's reject path is reserved for genuine protocol violations.
   Every router commits to its window, an empty one included, and the
   store registers that window so the epoch's round covers it. *)
let publish_epoch t ~epoch =
  let rec go pub skipped = function
    | [] -> Ok { published = List.rev pub; skipped = List.rev skipped }
    | router_id :: rest -> (
      Db.add_window t.db ~router_id ~epoch;
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
let queue_depth t = max 0 (Db.epoch_count t.db - Hashtbl.length t.covered)

(* ---- checkpoint rows ----

   One WAL row per aggregation round: coverage metadata, the receipt,
   the post-round CLog entries, the guest cycle count and a snapshot
   of the gap journal, all behind a SHA-256 checksum so recovery can
   tell a bit-flipped row from an honest one. A torn tail (partial
   row) is already dropped by Wal.replay; a corrupt row drops itself
   and everything after it, and the dropped suffix is re-proved. A
   restored round's Merkle tree is rebuilt from its entries when first
   asked for, as every round's is. *)

module Wire = Zkflow_util.Wire

let ckpt_magic = "zkflow.ckpt.v3"

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

(* The row is sized once and built in one buffer: the payload is
   written 32 bytes in, the receipt where it lies in it (as the
   length-prefixed bytes field it decodes from), and the checksum over
   the payload in place into the first 32. *)
let encode_ckpt_row ~cov ~gaps (round : Aggregate.round) =
  let module Receipt = Zkflow_zkproof.Receipt in
  let module Sha256 = Zkflow_hash.Sha256 in
  let size f =
    let w = Wire.sizer () in
    f w;
    Wire.length w
  in
  let head w =
    Wire.w_string w ckpt_magic;
    w_coverage w cov
  and tail w =
    w_entries w round.Aggregate.clog;
    Wire.w_int w round.Aggregate.cycles;
    Wire.w_list w (w_gap w) gaps
  in
  let receipt = round.Aggregate.receipt in
  let receipt_len = size (fun w -> Receipt.write w receipt) in
  let payload =
    size head + size (fun w -> Wire.w_int w receipt_len) + receipt_len + size tail
  in
  let row = Bytes.create (32 + payload) in
  let w = Wire.into row ~pos:32 in
  head w;
  Wire.w_int w receipt_len;
  Receipt.write w receipt;
  tail w;
  let ctx = Sha256.init () in
  Sha256.update_sub ctx row ~pos:32 ~len:payload;
  Sha256.finalize_into ctx ~dst:row ~dst_pos:0;
  row

let decode_ckpt_row row =
  if Bytes.length row < 32 then Error "checkpoint row: too short"
  else begin
    let digest = Bytes.sub row 0 32 in
    let payload = Bytes.sub row 32 (Bytes.length row - 32) in
    if not (D.equal (D.of_bytes digest) (D.hash_bytes payload)) then
      Error "checkpoint row: checksum mismatch"
    else
      Wire.decode payload (fun r ->
          (* A row of an older layout (v2 carried a node snapshot)
             stops here, and a row whose receipt predates the current
             seal stops at [Receipt.decode] below; either is
             re-proved. *)
          let magic = Wire.r_string r in
          if magic <> ckpt_magic then
            raise
              (Wire.Decode
                 (Printf.sprintf "checkpoint row: layout %S, not %S" magic ckpt_magic));
          let cov = r_coverage r in
          let receipt_bytes = Wire.r_bytes r in
          let entries = r_entry_array r in
          let cycles = Wire.r_int r in
          let gaps = Wire.r_list r (fun () -> r_gap r) in
          let round_clog =
            match Clog.of_entries entries with
            | Ok clog -> clog
            | Error msg -> raise (Wire.Decode msg)
          in
          (cov, restore_round receipt_bytes round_clog cycles, gaps))
  end

let with_checkpoints t ~path = t.ckpt <- Some (Wal.open_log path)

let abandon t = Option.iter Wal.abandon t.ckpt

(* The row a completed drain appends: the journal is whole and the
   next session's resume is a planned start, not a recovery. Shorter
   than a row checksum, so it can never decode as a round. *)
let drain_marker = Bytes.of_string "zkflow.ckpt.drained"

let mark_drained t =
  Option.iter
    (fun wal ->
      Wal.append wal drain_marker;
      Wal.sync wal)
    t.ckpt

let checkpoint_append t ~cov ~gaps round =
  match t.ckpt with
  | None -> ()
  | Some wal ->
    Wal.append wal (encode_ckpt_row ~cov ~gaps round);
    Fault.crashpoint "ckpt.pre_sync";
    Wal.sync wal;
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

(* The gaps [absent] opens at round [round_ix]: every pair the journal
   does not hold yet. *)
let fresh_gaps t ~epoch ~round_ix absent =
  List.filter_map
    (fun router_id ->
      if gap_known t ~router_id ~epoch then None
      else Some { router_id; epoch; detected_round = round_ix; healed_round = None })
    absent

let announce_gap_opens ~round_ix gaps =
  List.iter
    (fun (g : gap) ->
      Obs.Event.emit ~router:g.router_id ~epoch:g.epoch ~round:round_ix ~track:"prover"
        "prover.gap.open")
    gaps

(* A late-arriving export: the round for [epoch] already ran without
   [router_id] (its records were not in the store at round time, so no
   gap was recorded), and the records only showed up afterwards. The
   daemon calls this to put the pair into the gap journal so the heal
   machinery picks it up once its commitment is on the board. The gap
   reaches durable state with the next checkpoint row; until then a
   crash loses it, but detection is idempotent — the records are in
   the store, so the caller re-detects it after resume. *)
let note_gap t ~router_id ~epoch =
  let round_ix = List.length t.rounds_rev in
  match fresh_gaps t ~epoch ~round_ix [ router_id ] with
  | [] -> false
  | gaps ->
    t.gaps <- t.gaps @ gaps;
    announce_gap_opens ~round_ix gaps;
    true

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
  let new_gaps = fresh_gaps t ~epoch ~round_ix absent in
  let gaps' = base_gaps @ new_gaps in
  Fault.crashpoint "agg.pre_checkpoint";
  checkpoint_append t ~cov ~gaps:gaps' round;
  Fault.crashpoint "agg.post_checkpoint";
  t.clog <- round.Aggregate.clog;
  t.rounds_rev <- round :: t.rounds_rev;
  add_coverage t cov;
  t.gaps <- gaps';
  announce_gap_opens ~round_ix new_gaps;
  Ok (round, new_gaps)

(* The per-round latency histograms: a live /metrics scrape reads their
   buckets and p50/p95/p99 quantiles. The same values ride on each
   [prover.round.done] event, which is what [monitor] reads. *)
let h_round_ns = Obs.Metric.histogram "prover.round_ns"
let h_prove_ns = Obs.Metric.histogram "prover.prove_ns"

(* Every round runs inside this wrapper: [prover.round.start] before
   it, then [prover.round.error] for a failed round, or
   [prover.round.done] (and the latency histograms) for the round [f]
   proved, with the number of routers it covered and missed. [f] gets
   the round index and returns its result with that round, if any. *)
let in_round t ~epoch ~heal f =
  let round_ix = List.length t.rounds_rev in
  Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.start"
    ~attrs:[ ("queue_depth", Jsonx.Num (float_of_int (queue_depth t))) ];
  match f round_ix with
  | Error e ->
    Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.error"
      ~attrs:[ ("detail", Jsonx.Str e) ];
    Error e
  | Ok (result, None) -> Ok result
  | Ok (result, Some ((round : Aggregate.round), covered, missing)) ->
    let prove_ns = int_of_float (Float.round (round.Aggregate.prove_s *. 1e9)) in
    let execute_ns = int_of_float (Float.round (round.Aggregate.execute_s *. 1e9)) in
    Obs.Metric.observe h_round_ns (prove_ns + execute_ns);
    Obs.Metric.observe h_prove_ns prove_ns;
    Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.done"
      ~attrs:
        [
          ("cycles", Jsonx.Num (float_of_int round.Aggregate.cycles));
          ("entries", Jsonx.Num (float_of_int (Clog.length round.Aggregate.clog)));
          ("prove_ns", Jsonx.Num (float_of_int prove_ns));
          ("execute_ns", Jsonx.Num (float_of_int execute_ns));
          ("queue_depth", Jsonx.Num (float_of_int (queue_depth t)));
          ("covered", Jsonx.Num (float_of_int covered));
          ("missing", Jsonx.Num (float_of_int missing));
          ("heal", Jsonx.Num (if heal then 1. else 0.));
        ];
    Ok result

(* One fetch per router: the routers whose commitment is on the board,
   each with its round batch (the published digest and the store's
   window), and the routers whose commitment is not. *)
let fetch_batches t ~epoch routers =
  let t_fetch = Obs.Span.start () in
  let rec collect present absent = function
    | [] -> Ok (List.rev present, List.rev absent)
    | router_id :: rest -> (
      let* c = fetch_commitment t ~router_id ~epoch in
      match c with
      | None -> collect present (router_id :: absent) rest
      | Some c ->
        let records = Db.window t.db ~router_id ~epoch in
        collect ((router_id, (c.Commitment.batch, records)) :: present) absent rest)
  in
  let fetched = collect [] [] routers in
  if t_fetch <> 0 then Obs.Span.finish "round.fetch" t_fetch;
  fetched

(* The one way to prove a new epoch. The round covers every window of
   the epoch (per Db.routers_for) whose commitment is on the board;
   every other window becomes a named entry in the gap journal, to be
   folded in by a later heal round. The service keeps making progress
   while a router lags — the paper's off-path decoupling taken
   seriously. *)
let aggregate_available t ~epoch =
  in_round t ~epoch ~heal:false (fun round_ix ->
      let* present, absent = fetch_batches t ~epoch (Db.routers_for t.db ~epoch) in
      match present with
      | [] ->
        let new_gaps = fresh_gaps t ~epoch ~round_ix absent in
        t.gaps <- t.gaps @ new_gaps;
        announce_gap_opens ~round_ix new_gaps;
        Obs.Event.emit ~epoch ~round:round_ix ~track:"prover" "prover.round.skipped"
          ~attrs:[ ("missing", Jsonx.Num (float_of_int (List.length absent))) ];
        Ok (Skipped new_gaps, None)
      | _ ->
        let* round, new_gaps =
          prove_and_commit t ~epoch ~routers:(List.map fst present) ~absent ~heal:false
            (List.map snd present)
        in
        let outcome = if absent = [] then Complete round else Degraded (round, new_gaps) in
        Ok (outcome, Some (round, List.length present, List.length absent)))

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
      let* round =
        in_round t ~epoch ~heal:true (fun round_ix ->
            let* present, _ = fetch_batches t ~epoch routers in
            let routers = List.map fst present in
            let* round, _ =
              prove_and_commit t ~epoch ~routers ~absent:[] ~heal:true
                (List.map snd present)
            in
            List.iter
              (fun router_id ->
                Obs.Event.emit ~router:router_id ~epoch ~round:round_ix ~track:"prover"
                  "prover.gap.heal")
              routers;
            Ok (round, Some (round, List.length routers, 0)))
      in
      go (round :: acc) rest
  in
  go [] epochs

let heal_pending t =
  List.exists
    (fun (g : gap) ->
      g.healed_round = None
      && Board.lookup t.board ~router_id:g.router_id ~epoch:g.epoch <> None)
    t.gaps

(* ---- crash recovery ----

   The checkpoint journal is the prover's only saved state. [scan]
   keeps the longest prefix of rows that pass their checksum and
   decode, skipping drain markers; [restore] rebuilds a read-only
   service from that prefix (what `zkflow stats` and `monitor` read),
   and [resume] also repairs the file and reopens it for appending.
   [scan] also says whether the journal ends with a drain marker after
   nothing but intact rows, and why the first dropped row was
   refused. *)

let scan path =
  match Wal.replay path with
  | Error e -> Error e
  | Ok rows ->
    let rec go good kept_bytes drained = function
      | [] -> (List.rev good, kept_bytes, 0, drained, None)
      | row :: rest when Bytes.equal row drain_marker -> go good kept_bytes true rest
      | row :: rest -> (
        match decode_ckpt_row row with
        | Ok decoded ->
          go ((decoded, row) :: good) (kept_bytes + 4 + Bytes.length row) false rest
        | Error e -> (List.rev good, kept_bytes, 1 + List.length rest, false, Some e))
    in
    Ok (go [] 0 false rows)

let file_size path =
  if not (Sys.file_exists path) then 0
  else In_channel.with_open_bin path In_channel.length |> Int64.to_int

let of_rows ?proof_params ~db ~board good =
  let t = create ?proof_params ~db ~board () in
  List.iter
    (fun ((cov, round, gaps), _) ->
      t.clog <- round.Aggregate.clog;
      t.rounds_rev <- round :: t.rounds_rev;
      add_coverage t cov;
      t.gaps <- gaps)
    good;
  t

(* A file with bytes but no intact row (garbage, or a first row torn
   mid-write) is refused: there is no prefix to report. A lone drain
   marker is a drained journal with no round. *)
let restore ?proof_params ~db ~board ~path () =
  let* good, _, _, drained, refused = Result.map_error (( ^ ) "restore: ") (scan path) in
  let size = file_size path in
  if good = [] && size > 0 && not drained then
    Error
      (Printf.sprintf "restore: no intact checkpoint row in %d byte(s)%s" size
         (match refused with Some e -> " (" ^ e ^ ")" | None -> ""))
  else Ok (of_rows ?proof_params ~db ~board good)

(* The dropped suffix is simply re-proved: aggregation is
   deterministic, so the re-proved rounds are bit-identical to the
   ones the crash destroyed. *)
let resume ?proof_params ~db ~board ~path () =
  (* Only a recovery is a restart: the ["prover.resume"] event — what
     the prover-restarts SLO counts — is emitted when a previous
     session's journal exists and does not end with its drain marker.
     A cold start (no journal yet) and a start after a completed drain
     are planned. *)
  let journal_existed = Sys.file_exists path in
  match scan path with
  | Error e -> Error ("resume: " ^ e)
  | Ok (good, kept_bytes, dropped_rows, drained, _) ->
    (* Compact the file to the intact prefix, so future appends land
       after clean data; this also drops the drain marker. *)
    if kept_bytes < file_size path then Wal.rewrite path (List.map snd good);
    let t = of_rows ?proof_params ~db ~board good in
    with_checkpoints t ~path;
    let restored = List.length good in
    if journal_existed && not drained then
      Obs.Event.emit ~track:"prover" "prover.resume"
        ~attrs:
          [
            ("restored_rounds", Jsonx.Num (float_of_int restored));
            ("dropped_rows", Jsonx.Num (float_of_int dropped_rows));
            ("open_gaps", Jsonx.Num (float_of_int (List.length (open_gaps t))));
          ];
    (* A crash between the last row's sync and its round's own events
       leaves what that row changed in the journal but never in the
       event log: the gaps it detected (["prover.gap.open"]) and, for a
       heal round, the gaps it healed (["prover.gap.heal"]).
       Re-announce those. Earlier rows were announced before the next
       round began. A repeat of an announcement that was not lost
       counts once: the monitor and the SLO engine key gap opens by
       router and epoch, the monitor keeps the first heal, and no SLO
       counts heals. *)
    let last = restored - 1 in
    List.iter
      (fun (g : gap) ->
        let announce kind =
          Obs.Event.emit ~router:g.router_id ~epoch:g.epoch ~round:last ~track:"prover" kind
        in
        match g.healed_round with
        | None -> if g.detected_round = last then announce "prover.gap.open"
        | Some r -> if r = last then announce "prover.gap.heal")
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

let seal_queries t =
  let indexed =
    List.mapi
      (fun i (r : Aggregate.round) ->
        (r.Aggregate.receipt.Zkflow_zkproof.Receipt.seal.Zkflow_zkproof.Receipt.params
           .Zkflow_zkproof.Params.queries, i))
      (rounds t)
  in
  List.sort_uniq Int.compare (List.map fst indexed)
  |> List.map (fun q ->
         (q, List.filter_map (fun (q', i) -> if q' = q then Some i else None) indexed))

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
           Jsonx.Arr
             (List.map
                (fun (queries, rounds) ->
                  Jsonx.Obj
                    [
                      ("queries", Jsonx.Num (float_of_int queries));
                      ( "soundness_bits",
                        Jsonx.Num
                          (Zkflow_zkproof.Params.soundness_bits
                             (Zkflow_zkproof.Params.make ~queries)) );
                      ( "rounds",
                        Jsonx.Arr (List.map (fun i -> Jsonx.Num (float_of_int i)) rounds) );
                    ])
                (seal_queries t)) );
         ("rounds", Jsonx.Arr (List.mapi round_obj (summaries t)));
         ("round_cycles", cycle_percentiles);
         ("gaps", Jsonx.Arr (List.map gap_json t.gaps));
         ( "open_gaps",
           Jsonx.Num (float_of_int (List.length (open_gaps t))) );
       ])

let query t params =
  Query.prove ~params:t.proof_params ~clog:t.clog params

let query_at t ~round params =
  let rounds = List.rev t.rounds_rev in
  match if round < 0 then None else List.nth_opt rounds round with
  | None -> Error (Printf.sprintf "query_at: no round %d (have %d)" round (List.length rounds))
  | Some r ->
    Query.prove ~params:t.proof_params ~clog:r.Aggregate.clog params
