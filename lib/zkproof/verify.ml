module Program = Zkflow_zkvm.Program
module Trace = Zkflow_zkvm.Trace
module Proof = Zkflow_merkle.Proof
module Multiproof = Zkflow_merkle.Multiproof
module Sha256 = Zkflow_hash.Sha256
module D = Zkflow_hash.Digest32
module F = Zkflow_field.Babybear

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let require cond fmt =
  if cond then Format.ikfprintf (fun _ -> Ok ()) Format.str_formatter fmt
  else fail fmt

(* One column of the seal, with the leaf set the challenges open in it,
   that set's multiproof shape, and the index set the checks below ask
   for: the rows' indices in the rows and jacc columns, which open one
   leaf per index, and the access-log entries in the time, sorted and z
   columns, which open the leaves that hold them ([Logleaf]). An
   opened index [i] sits at rank [Fs.rank c.entries i]: of the
   column's leaves for rows and jacc, of its decoded entries for the
   logs. *)
type column = {
  name : string;
  root : D.t;
  set : int array;
  shape : Multiproof.shape;
  entries : int array;
  col : Receipt.column;
}

(* The shape of a set the challenges open in a tree of [n] leaves. It
   cannot be refused: every set [Fs] derives is ascending, repeats
   nothing and stays inside the tree. *)
let shape ~name n set =
  match Multiproof.shape ~depth:(Multiproof.depth_of_size n) set with
  | Ok shape -> Ok shape
  | Error e -> fail "%s: %s" name e

let column name root shape ~entries set col = { name; root; set; shape; entries; col }

let rank c i = Fs.rank c.entries i

(* The leaf and helper counts the index set implies, checked before
   any leaf or node is hashed. *)
let check_counts c =
  let leaves = Array.length c.col.Receipt.leaves and opened = Array.length c.set in
  let* () =
    require (leaves = opened) "%s: %d leaves where the challenges open %d" c.name leaves
      opened
  in
  let helpers = Bytes.length c.col.Receipt.helpers / 32
  and need = Multiproof.shape_helpers c.shape in
  require (helpers = need) "%s: %d helpers where the challenges need %d" c.name helpers
    need

(* One multiproof per root: the opened leaves hashed where they lie,
   in one batch kernel call, into the first slots of [work], then one
   climb there that hashes each distinct node once. *)
let authenticate ctx work c =
  let leaves = c.col.Receipt.leaves in
  ignore (Proof.leaves_array_into ctx leaves ~dst:work ~lo:0 ~hi:(Array.length leaves) : int);
  match Multiproof.root_of_shape ~node:Receipt.node c.shape ~helpers:c.col.Receipt.helpers work with
  | Ok root when D.equal root c.root -> Ok ()
  | _ -> fail "%s: multiproof does not reach the root" c.name

(* ---- the opened leaves, each decoded once, by rank ----

   A leaf that does not decode keeps its refusal, which the first
   check that reads it reports under its own name, so the order and
   text of every verdict are those of decoding at each use. *)

let opened_row ~what rows r =
  match Trace.row rows r with Ok _ as ok -> ok | Error e -> fail "%s: bad row leaf: %s" what e

(* The opened entries of an access log, one per rank as
   [Logleaf.unpack_mem] lays them out, each with every fingerprint
   coordinate below p: [Trace.read_mem_into] bounds the address and
   value, [check_time] the time. [refusal] holds, for an entry that
   fails either or whose leaf does not unpack, the text after the
   check's name, and "" for the rest. *)
type log = { ints : Trace.log; refusal : string array; terms : int array }

let decode_log ~n_rows ~n_mem ~alpha ~beta c =
  let ints, refusal = Logleaf.unpack_mem ~n:n_mem c.entries c.col.Receipt.leaves in
  Array.iteri
    (fun r msg ->
      if String.length msg > 0 then refusal.(r) <- "bad mem leaf: " ^ msg
      else
        Result.iter_error
          (fun msg -> refusal.(r) <- msg)
          (Memcheck.check_time ~n_rows (Trace.mem_at ints r)))
    refusal;
  { ints; refusal; terms = Memcheck.terms_of_ints ~alpha ~beta ints }

let accepted refusal = String.length refusal = 0

let entry_ok ~what log r =
  if accepted log.refusal.(r) then Ok () else fail "%s: %s" what log.refusal.(r)

let mem ~what log r =
  match entry_ok ~what log r with Ok () -> Ok (Trace.mem_at log.ints r) | Error _ as e -> e

(* The z entries' coordinates, four per rank (time c0, c1, sorted c0,
   c1), and each entry's refusal, "" for none. *)
type zs = { coords : int array; bad : string array }

let decode_z ~n_mem c =
  let coords, bad = Logleaf.unpack_z ~n:n_mem c.entries c.col.Receipt.leaves in
  { coords; bad }

let z_ok ~what zs r =
  if accepted zs.bad.(r) then Ok () else fail "%s: bad z leaf: %s" what zs.bad.(r)

let decode_chain ~what leaf =
  if Bytes.length leaf <> 32 then fail "%s: bad chain leaf" what
  else Ok (Zkflow_hash.Chain.of_digest (D.of_bytes leaf))

let chain ~what c r = decode_chain ~what c.col.Receipt.leaves.(r)

(* The accumulator is public, so its heads are compared with one
   [memcmp], not in constant time. *)
let same_head a b =
  Bytes.equal
    (D.unsafe_to_bytes (Zkflow_hash.Chain.head a))
    (D.unsafe_to_bytes (Zkflow_hash.Chain.head b))

let rec all = function
  | [] -> Ok ()
  | check :: rest -> ( match check () with Ok () -> all rest | Error _ as e -> e)

(* [f] on each index in order, stopping at the first refusal. *)
let rec each idx k f =
  if k = Array.length idx then Ok ()
  else match f idx.(k) with Ok () -> each idx (k + 1) f | Error _ as e -> e

(* The access spans of the step rows, which the time log's index set
   needs. They are read from the rows column's leaves before any
   hashing; the rows multiproof authenticates those leaves after. A
   span must lie inside the log, and the spans together may own no
   more accesses than one column may open, so the set stays small
   whatever the seal claims. *)
let step_spans ~n_mem ~queries rows decoded step_idx =
  let spans = Array.make (Array.length step_idx) (0, 0) in
  let rec go k budget =
    if k = Array.length step_idx then Ok spans
    else
      let* r = opened_row ~what:"step.row" decoded (rank rows step_idx.(k)) in
      let pos = r.Trace.mem_pos and count = r.Trace.mem_count in
      if not (pos <= n_mem && count <= n_mem - pos) then
        fail "step.row: access span outside the log"
      else if count > budget then fail "step.row: access spans past the column bound"
      else begin
        spans.(k) <- (pos, count);
        go (k + 1) (budget - count)
      end
  in
  go 0 (Receipt.max_leaves ~queries)

(* The accesses the row's instruction implies, against the log entries
   it owns, from the [k]th on. *)
let rec check_accesses ~time ~time_log ~(row : Trace.row) k = function
  | [] -> Ok ()
  | expected :: rest ->
    let* entry = mem ~what:"step.mem" time_log (rank time (row.Trace.mem_pos + k)) in
    if Checker.matches expected entry ~time:row.Trace.cycle then
      check_accesses ~time ~time_log ~row (k + 1) rest
    else fail "step: access %d does not match instruction semantics" k

let check_step ~program ~rows ~decoded ~jacc ~time ~time_log i =
  (* The jacc column opens the rows' indices: one rank serves both. *)
  let ri = rank rows i and rn = rank rows (i + 1) in
  let* row = opened_row ~what:"step.row" decoded ri in
  let* next = opened_row ~what:"step.next" decoded rn in
  let* () = require (row.Trace.cycle = i) "step: row cycle <> index" in
  let* accesses = Checker.check_row ~program row in
  let* () = Checker.check_pair ~program row ~next in
  (* The access log owned by this row. *)
  let* () =
    require (row.Trace.mem_count = List.length accesses) "step: access count mismatch"
  in
  let* () =
    require
      (next.Trace.mem_pos = row.Trace.mem_pos + row.Trace.mem_count)
      "step: access log not contiguous"
  in
  let* () = check_accesses ~time ~time_log ~row 0 accesses in
  (* Journal accumulator link. *)
  let* jacc_i = chain ~what:"step.jacc" jacc ri in
  let* jacc_next = chain ~what:"step.jacc_next" jacc rn in
  require
    (same_head (Checker.jacc_step ~program jacc_i decoded rn) jacc_next)
    "step: journal accumulator mismatch"

let check_sorted ~sorted ~sorted_log j =
  let* e1 = mem ~what:"sorted.first" sorted_log (rank sorted j) in
  let* e2 = mem ~what:"sorted.second" sorted_log (rank sorted (j + 1)) in
  Memcheck.check_adjacent e1 e2

(* A grand-product link of one column: [half] is 0 for the time
   column's coordinates in a z entry and 2 for the sorted column's, and
   [log] is that column's access log with its terms. *)
let check_z ~z ~zs ~half ~log ~entries j =
  let coords = zs.coords in
  let a = rank z j and b = rank z (j + 1) in
  let* () = z_ok ~what:"z" zs a in
  let* () = z_ok ~what:"z.next" zs b in
  let e = rank log (j + 1) in
  let* () = entry_ok ~what:"z.entry" entries e in
  let at r = coords.((4 * r) + half) and at1 r = coords.((4 * r) + half + 1) in
  if
    Memcheck.link_holds ~z0:(at a) ~z1:(at1 a) ~t0:entries.terms.(2 * e)
      ~t1:entries.terms.((2 * e) + 1)
      ~next0:(at b) ~next1:(at1 b)
  then Ok ()
  else fail "z: grand-product link broken"

let check_boundary ~program ~claim ~journal ~n_rows ~n_mem ~rows ~decoded ~jacc ~time
    ~time_log ~sorted ~sorted_log ~z ~zs =
  let coords = zs.coords in
  (* Entry conditions. *)
  let* row0 = opened_row ~what:"bd.row0" decoded (rank rows 0) in
  let* () =
    require
      (row0.Trace.cycle = 0 && row0.Trace.pc = 0 && row0.Trace.mem_pos = 0)
      "boundary: execution must start at pc 0"
  in
  let* jacc0 = chain ~what:"bd.jacc0" jacc (rank jacc 0) in
  let* () =
    require
      (Zkflow_hash.Chain.equal
         (Checker.jacc_step ~program Zkflow_hash.Chain.genesis decoded (rank rows 0))
         jacc0)
      "boundary: journal accumulator base"
  in
  (* Exit conditions. *)
  let* last = opened_row ~what:"bd.last" decoded (rank rows (n_rows - 1)) in
  let* () = require (last.Trace.cycle = n_rows - 1) "boundary: last row cycle" in
  let* () =
    require (Checker.is_halt_row ~program last) "boundary: last row is not a halt"
  in
  let* () =
    require
      (last.Trace.rs2 = claim.Receipt.exit_code)
      "boundary: exit code mismatch"
  in
  let* () =
    require
      (last.Trace.mem_pos + last.Trace.mem_count = n_mem)
      "boundary: access log length mismatch"
  in
  let* jacc_last = chain ~what:"bd.jacc_last" jacc (rank jacc (n_rows - 1)) in
  let* () =
    require
      (D.equal (Zkflow_hash.Chain.head jacc_last) journal)
      "boundary: journal does not match accumulator"
  in
  (* Memory-argument boundaries. *)
  let s0 = rank sorted 0 and t0 = rank time 0 and z0 = rank z 0 in
  let* sorted0 = mem ~what:"bd.sorted0" sorted_log s0 in
  let* () = Memcheck.check_first sorted0 in
  let* () = entry_ok ~what:"bd.time0" time_log t0 in
  let* () = z_ok ~what:"bd.z0" zs z0 in
  let* () =
    require
      (coords.(4 * z0) = time_log.terms.(2 * t0)
      && coords.((4 * z0) + 1) = time_log.terms.((2 * t0) + 1))
      "boundary: z_time base"
  in
  let* () =
    require
      (coords.((4 * z0) + 2) = sorted_log.terms.(2 * s0)
      && coords.((4 * z0) + 3) = sorted_log.terms.((2 * s0) + 1))
      "boundary: z_sorted base"
  in
  let zl = rank z (n_mem - 1) in
  let* () = z_ok ~what:"bd.z_last" zs zl in
  require
    (coords.(4 * zl) = coords.((4 * zl) + 2) && coords.((4 * zl) + 1) = coords.((4 * zl) + 3))
    "boundary: grand products differ (access logs are not a permutation)"

let verify ~program (t : Receipt.t) =
  let { Receipt.claim; seal } = t in
  let* () =
    require
      (D.equal (Program.image_id program) claim.Receipt.image_id)
      "verify: image id does not match the supplied program"
  in
  let* () = Receipt.check_claim claim in
  let { Receipt.n_rows; n_mem; _ } = seal in
  let* () = require (n_rows >= 1) "verify: empty trace" in
  (* Access times are fingerprinted mod p, so they must stay below it. *)
  let* () = require (n_rows < F.p) "verify: trace longer than the field order" in
  let* () = require (n_mem >= 1) "verify: empty access log" in
  let queries = seal.Receipt.params.Params.queries in
  (* The journal digest, once: the transcript absorbs it and the
     boundary check compares the accumulator's last head with it. *)
  let journal = Receipt.journal_digest claim in
  let challenges, _ =
    Fs.derive ~claim ~journal ~queries ~n_rows ~n_mem ~root_rows:seal.Receipt.root_rows
      ~root_time:seal.Receipt.root_time ~root_sorted:seal.Receipt.root_sorted
      ~root_jacc:seal.Receipt.root_jacc
      ~commit_z:(fun ~alpha:_ ~beta:_ -> seal.Receipt.root_z)
  in
  let { Fs.alpha; beta; step_idx; sorted_idx; zt_idx; zs_idx } = challenges in
  (* What each root must open, and how many helpers prove it: all
     fixed before any leaf or node is hashed. *)
  let rows_set = Fs.rows_opened ~n_rows challenges in
  (* The jacc column opens the rows' indices, under the same shape. *)
  let* rows_shape = shape ~name:"rows" n_rows rows_set in
  let rows =
    column "rows" seal.Receipt.root_rows rows_shape ~entries:rows_set rows_set seal.Receipt.rows
  and jacc =
    column "jacc" seal.Receipt.root_jacc rows_shape ~entries:rows_set rows_set seal.Receipt.jacc
  in
  let* () = check_counts rows in
  let* () = check_counts jacc in
  let decoded = Trace.decode_rows rows.col.Receipt.leaves in
  let* spans = step_spans ~n_mem ~queries rows decoded step_idx in
  let opened = Fs.opened ~n_rows ~n_mem ~spans challenges in
  (* The access-log columns open the leaves holding the entries the
     challenges name. *)
  let log name root entries col =
    let set = Logleaf.leaf_set entries in
    let* s = shape ~name (Logleaf.count n_mem) set in
    Ok (column name root s ~entries set col)
  in
  let* time = log "time" seal.Receipt.root_time opened.Fs.time seal.Receipt.time in
  let* sorted = log "sorted" seal.Receipt.root_sorted opened.Fs.sorted seal.Receipt.sorted in
  let* z = log "z" seal.Receipt.root_z opened.Fs.z seal.Receipt.z in
  let* () = check_counts time in
  let* () = check_counts sorted in
  let* () = check_counts z in
  (* One work buffer serves the five climbs, each in turn. *)
  let columns = [ rows; jacc; time; sorted; z ] in
  let widest = List.fold_left (fun k c -> Int.max k (Array.length c.set)) 0 columns in
  let ctx = Sha256.init () and work = Bytes.create (32 * 3 * widest) in
  let* () = all (List.map (fun c () -> authenticate ctx work c) columns) in
  let time_log = decode_log ~n_rows ~n_mem ~alpha ~beta time
  and sorted_log = decode_log ~n_rows ~n_mem ~alpha ~beta sorted
  and zs = decode_z ~n_mem z in
  let* () = each step_idx 0 (check_step ~program ~rows ~decoded ~jacc ~time ~time_log) in
  let* () = each sorted_idx 0 (check_sorted ~sorted ~sorted_log) in
  let* () =
    each zt_idx 0 (check_z ~z ~zs ~half:0 ~log:time ~entries:time_log)
  in
  let* () =
    each zs_idx 0
      (check_z ~z ~zs ~half:2 ~log:sorted ~entries:sorted_log)
  in
  check_boundary ~program ~claim ~journal ~n_rows ~n_mem ~rows ~decoded ~jacc ~time
    ~time_log ~sorted ~sorted_log ~z ~zs

let check ~program t = Result.is_ok (verify ~program t)
