module Program = Zkflow_zkvm.Program
module Trace = Zkflow_zkvm.Trace
module Proof = Zkflow_merkle.Proof
module Multiproof = Zkflow_merkle.Multiproof
module Sha256 = Zkflow_hash.Sha256
module D = Zkflow_hash.Digest32
module Fp2 = Zkflow_field.Fp2
module F = Zkflow_field.Babybear

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let require cond fmt =
  if cond then Format.ikfprintf (fun _ -> Ok ()) Format.str_formatter fmt
  else fail fmt

(* One column of the seal, with the tree depth and the index set the
   challenges open in it. [leaf c i] is the opened leaf at index [i];
   every index the checks below ask for is in the set. *)
type column = {
  name : string;
  root : D.t;
  depth : int;
  set : int array;
  col : Receipt.column;
}

let leaf c i = c.col.Receipt.leaves.(Fs.rank c.set i)

(* The leaf and helper counts the index set implies, checked before
   any leaf or node is hashed. *)
let check_counts c =
  let leaves = Array.length c.col.Receipt.leaves and opened = Array.length c.set in
  let* () =
    require (leaves = opened) "%s: %d leaves where the challenges open %d" c.name leaves
      opened
  in
  let helpers = Bytes.length c.col.Receipt.helpers / 32
  and need = Multiproof.helper_count ~depth:c.depth c.set in
  require (helpers = need) "%s: %d helpers where the challenges need %d" c.name helpers
    need

(* One multiproof per root: the column's leaves hashed in one batch
   kernel call over a flat copy of them, then one climb that hashes
   each distinct node once. *)
let authenticate c =
  let k = Array.length c.col.Receipt.leaves in
  let digests = Bytes.create (32 * k) in
  ignore
    (Proof.leaves_into (Sha256.init ())
       (Zkflow_util.Column.of_array c.col.Receipt.leaves)
       ~dst:digests ~lo:0 ~hi:k
      : int);
  let proof = { Multiproof.depth = c.depth; indices = c.set; helpers = c.col.Receipt.helpers } in
  require
    (Multiproof.verify ~node:Receipt.node ~root:c.root proof digests)
    "%s: multiproof does not reach the root" c.name

let decode_row ~what leaf =
  match Trace.decode_row leaf with
  | Ok row -> Ok row
  | Error e -> fail "%s: bad row leaf: %s" what e

(* An opened access-log entry, with every fingerprint coordinate below p:
   [Trace.decode_mem] bounds the address and value, [check_time] the
   time. *)
let decode_mem ~n_rows ~what leaf =
  match Trace.decode_mem leaf with
  | Error msg -> fail "%s: bad mem leaf: %s" what msg
  | Ok e -> (
    match Memcheck.check_time ~n_rows e with
    | Ok () -> Ok e
    | Error msg -> fail "%s: %s" what msg)

let decode_z ~what leaf =
  match Memcheck.decode_z leaf with
  | Ok v -> Ok v
  | Error msg -> fail "%s: bad z leaf: %s" what msg

let decode_chain ~what leaf =
  if Bytes.length leaf <> 32 then fail "%s: bad chain leaf" what
  else Ok (Zkflow_hash.Chain.of_digest (D.of_bytes leaf))

let rec all = function
  | [] -> Ok ()
  | check :: rest ->
    let* () = check () in
    all rest

(* The access spans of the step rows, which the time log's index set
   needs. They are read from the rows column's leaves before any
   hashing; the rows multiproof authenticates those leaves after. A
   span must lie inside the log, and the spans together may own no
   more accesses than one column may open, so the set stays small
   whatever the seal claims. *)
let step_spans ~n_mem ~queries rows step_idx =
  let rec go k budget spans =
    if k = Array.length step_idx then Ok (Array.of_list (List.rev spans))
    else
      let* row = decode_row ~what:"step.row" (leaf rows step_idx.(k)) in
      let pos = row.Trace.mem_pos and count = row.Trace.mem_count in
      let* () =
        require (pos <= n_mem && count <= n_mem - pos) "step.row: access span outside the log"
      in
      let* () = require (count <= budget) "step.row: access spans past the column bound" in
      go (k + 1) (budget - count) ((pos, count) :: spans)
  in
  go 0 (Receipt.max_leaves ~queries) []

let check_step ~program ~n_rows ~rows ~jacc ~time i =
  let* row = decode_row ~what:"step.row" (leaf rows i) in
  let* next = decode_row ~what:"step.next" (leaf rows (i + 1)) in
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
  let* () =
    all
      (List.mapi
         (fun k expected () ->
           let* entry =
             decode_mem ~n_rows ~what:"step.mem" (leaf time (row.Trace.mem_pos + k))
           in
           require
             (Checker.matches expected entry ~time:row.Trace.cycle)
             "step: access %d does not match instruction semantics" k)
         accesses)
  in
  (* Journal accumulator link. *)
  let* jacc_i = decode_chain ~what:"step.jacc" (leaf jacc i) in
  let* jacc_next = decode_chain ~what:"step.jacc_next" (leaf jacc (i + 1)) in
  require
    (Zkflow_hash.Chain.equal (Checker.jacc_step ~program jacc_i next) jacc_next)
    "step: journal accumulator mismatch"

let check_sorted ~n_rows ~sorted j =
  let* e1 = decode_mem ~n_rows ~what:"sorted.first" (leaf sorted j) in
  let* e2 = decode_mem ~n_rows ~what:"sorted.second" (leaf sorted (j + 1)) in
  Memcheck.check_adjacent e1 e2

(* A grand-product link of one column: [half] picks that column's value
   out of a shared z leaf, and [log] is that column's access log. *)
let check_z ~alpha ~beta ~n_rows ~z ~half ~log j =
  let* zj = decode_z ~what:"z" (leaf z j) in
  let* zj1 = decode_z ~what:"z.next" (leaf z (j + 1)) in
  let* entry = decode_mem ~n_rows ~what:"z.entry" (leaf log (j + 1)) in
  require
    (Fp2.equal (half zj1) (Fp2.mul (half zj) (Memcheck.term ~alpha ~beta entry)))
    "z: grand-product link broken"

let check_boundary ~program ~claim ~n_rows ~n_mem ~alpha ~beta ~rows ~jacc ~time ~sorted
    ~z =
  (* Entry conditions. *)
  let* row0 = decode_row ~what:"bd.row0" (leaf rows 0) in
  let* () =
    require
      (row0.Trace.cycle = 0 && row0.Trace.pc = 0 && row0.Trace.mem_pos = 0)
      "boundary: execution must start at pc 0"
  in
  let* jacc0 = decode_chain ~what:"bd.jacc0" (leaf jacc 0) in
  let* () =
    require
      (Zkflow_hash.Chain.equal
         (Checker.jacc_step ~program Zkflow_hash.Chain.genesis row0)
         jacc0)
      "boundary: journal accumulator base"
  in
  (* Exit conditions. *)
  let* last = decode_row ~what:"bd.last" (leaf rows (n_rows - 1)) in
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
  let* jacc_last = decode_chain ~what:"bd.jacc_last" (leaf jacc (n_rows - 1)) in
  let* () =
    require
      (D.equal (Zkflow_hash.Chain.head jacc_last) (Receipt.journal_digest claim))
      "boundary: journal does not match accumulator"
  in
  (* Memory-argument boundaries. *)
  let* sorted0 = decode_mem ~n_rows ~what:"bd.sorted0" (leaf sorted 0) in
  let* () = Memcheck.check_first sorted0 in
  let* time0 = decode_mem ~n_rows ~what:"bd.time0" (leaf time 0) in
  let* zt0, zs0 = decode_z ~what:"bd.z0" (leaf z 0) in
  let* () =
    require
      (Fp2.equal zt0 (Memcheck.term ~alpha ~beta time0))
      "boundary: z_time base"
  in
  let* () =
    require
      (Fp2.equal zs0 (Memcheck.term ~alpha ~beta sorted0))
      "boundary: z_sorted base"
  in
  let* zt_last, zs_last = decode_z ~what:"bd.z_last" (leaf z (n_mem - 1)) in
  require (Fp2.equal zt_last zs_last)
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
  let challenges, _ =
    Fs.derive ~claim ~queries ~n_rows ~n_mem ~root_rows:seal.Receipt.root_rows
      ~root_time:seal.Receipt.root_time ~root_sorted:seal.Receipt.root_sorted
      ~root_jacc:seal.Receipt.root_jacc
      ~commit_z:(fun ~alpha:_ ~beta:_ -> seal.Receipt.root_z)
  in
  let { Fs.alpha; beta; step_idx; sorted_idx; zt_idx; zs_idx } = challenges in
  (* What each root must open, and how many helpers prove it: all
     fixed before any leaf or node is hashed. *)
  let column name root n set col =
    { name; root; depth = Multiproof.depth_of_size n; set; col }
  in
  let rows_set = Fs.rows_opened ~n_rows challenges in
  let rows = column "rows" seal.Receipt.root_rows n_rows rows_set seal.Receipt.rows
  and jacc = column "jacc" seal.Receipt.root_jacc n_rows rows_set seal.Receipt.jacc in
  let* () = check_counts rows in
  let* () = check_counts jacc in
  let* spans = step_spans ~n_mem ~queries rows step_idx in
  let opened = Fs.opened ~n_rows ~n_mem ~spans challenges in
  let time = column "time" seal.Receipt.root_time n_mem opened.Fs.time seal.Receipt.time
  and sorted =
    column "sorted" seal.Receipt.root_sorted n_mem opened.Fs.sorted seal.Receipt.sorted
  and z = column "z" seal.Receipt.root_z n_mem opened.Fs.z seal.Receipt.z in
  let* () = all (List.map (fun c () -> check_counts c) [ time; sorted; z ]) in
  let* () = all (List.map (fun c () -> authenticate c) [ rows; jacc; time; sorted; z ]) in
  let each idx f = List.map (fun j () -> f j) (Array.to_list idx) in
  let* () =
    all
      (List.concat
         [
           each step_idx (check_step ~program ~n_rows ~rows ~jacc ~time);
           each sorted_idx (check_sorted ~n_rows ~sorted);
           each zt_idx (check_z ~alpha ~beta ~n_rows ~z ~half:fst ~log:time);
           each zs_idx (check_z ~alpha ~beta ~n_rows ~z ~half:snd ~log:sorted);
         ])
  in
  check_boundary ~program ~claim ~n_rows ~n_mem ~alpha ~beta ~rows ~jacc ~time ~sorted ~z

let check ~program t = Result.is_ok (verify ~program t)
