module Program = Zkflow_zkvm.Program
module Trace = Zkflow_zkvm.Trace
module Proof = Zkflow_merkle.Proof
module D = Zkflow_hash.Digest32
module Fp2 = Zkflow_field.Fp2
module F = Zkflow_field.Babybear

let ( let* ) = Result.bind
let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let require cond fmt =
  if cond then Format.ikfprintf (fun _ -> Ok ()) Format.str_formatter fmt
  else fail fmt

(* Authenticate one opening against a column root. [authenticated]
   says every path of the seal already verified in the batch check, so
   only the index binding is left to check here. *)
let check_opening ~authenticated ~root ~what (o : Receipt.opening) =
  let* () =
    require (o.Receipt.path.Proof.index = o.Receipt.index) "%s: index mismatch" what
  in
  require
    (authenticated
    || Proof.verify_data ~node:Receipt.node ~root o.Receipt.leaf o.Receipt.path)
    "%s: Merkle path does not authenticate" what

(* Every opening of the seal, by the column root it opens against. *)
let column_openings (seal : Receipt.seal) =
  let b = seal.Receipt.boundary in
  let each a f = List.concat_map f (Array.to_list a) in
  let z_pairs zs =
    each zs (fun (zc : Receipt.z_check) -> [ zc.Receipt.z; zc.Receipt.z_next ])
  in
  let entries zs = each zs (fun (zc : Receipt.z_check) -> [ zc.Receipt.entry_next ]) in
  let steps f = each seal.Receipt.steps f in
  [
    ( seal.Receipt.root_rows,
      b.Receipt.row0 :: b.Receipt.last_row
      :: steps (fun s -> [ s.Receipt.row; s.Receipt.next ]) );
    ( seal.Receipt.root_jacc,
      b.Receipt.jacc0 :: b.Receipt.jacc_last
      :: steps (fun s -> [ s.Receipt.jacc; s.Receipt.jacc_next ]) );
    ( seal.Receipt.root_time,
      (b.Receipt.time0 :: steps (fun s -> Array.to_list s.Receipt.mem))
      @ entries seal.Receipt.zs_time );
    ( seal.Receipt.root_sorted,
      (b.Receipt.sorted0
      :: each seal.Receipt.sorteds (fun s -> [ s.Receipt.first; s.Receipt.second ]))
      @ entries seal.Receipt.zs_sorted );
    ( seal.Receipt.root_z,
      b.Receipt.z0 :: b.Receipt.z_last
      :: (z_pairs seal.Receipt.zs_time @ z_pairs seal.Receipt.zs_sorted) );
  ]

(* One shared-path batch check per column root. It accepts exactly when
   every opening's path verifies alone, so when it passes the
   per-opening checks need not hash again; when it fails they run
   unchanged and report the first bad opening as before. *)
let paths_authenticate seal =
  List.for_all
    (fun (root, openings) ->
      let pair (o : Receipt.opening) = (o.Receipt.leaf, o.Receipt.path) in
      Proof.verify_data_all ~node:Receipt.node ~root
        (Array.of_list (List.map pair openings)))
    (column_openings seal)

let decode_row ~what (o : Receipt.opening) =
  match Trace.decode_row o.Receipt.leaf with
  | Ok row -> Ok row
  | Error e -> fail "%s: bad row leaf: %s" what e

(* An opened access-log entry, with every fingerprint coordinate below p:
   [Trace.decode_mem] bounds the address and value, [check_time] the
   time. *)
let decode_mem ~n_rows ~what (o : Receipt.opening) =
  match Trace.decode_mem o.Receipt.leaf with
  | Error msg -> fail "%s: bad mem leaf: %s" what msg
  | Ok e -> (
    match Memcheck.check_time ~n_rows e with
    | Ok () -> Ok e
    | Error msg -> fail "%s: %s" what msg)

let decode_z ~what (o : Receipt.opening) =
  match Memcheck.decode_z o.Receipt.leaf with
  | Ok v -> Ok v
  | Error msg -> fail "%s: bad z leaf: %s" what msg

let decode_chain ~what (o : Receipt.opening) =
  if Bytes.length o.Receipt.leaf <> 32 then fail "%s: bad chain leaf" what
  else Ok (Zkflow_hash.Chain.of_digest (D.of_bytes o.Receipt.leaf))

let rec all = function
  | [] -> Ok ()
  | check :: rest ->
    let* () = check () in
    all rest

let check_step ~authenticated ~program ~seal i (s : Receipt.step_check) =
  let check_opening = check_opening ~authenticated in
  let { Receipt.root_rows; root_time; root_jacc; n_rows; _ } = seal in
  let* () = check_opening ~root:root_rows ~what:"step.row" s.Receipt.row in
  let* () = check_opening ~root:root_rows ~what:"step.next" s.Receipt.next in
  let* () = check_opening ~root:root_jacc ~what:"step.jacc" s.Receipt.jacc in
  let* () =
    check_opening ~root:root_jacc ~what:"step.jacc_next" s.Receipt.jacc_next
  in
  let* () = require (s.Receipt.row.Receipt.index = i) "step: unsampled row index" in
  let* () = require (s.Receipt.next.Receipt.index = i + 1) "step: next index" in
  let* () = require (s.Receipt.jacc.Receipt.index = i) "step: jacc index" in
  let* () =
    require (s.Receipt.jacc_next.Receipt.index = i + 1) "step: jacc_next index"
  in
  let* row = decode_row ~what:"step.row" s.Receipt.row in
  let* next = decode_row ~what:"step.next" s.Receipt.next in
  let* () = require (row.Trace.cycle = i) "step: row cycle <> index" in
  let* accesses = Checker.check_row ~program row in
  let* () = Checker.check_pair ~program row ~next in
  (* The access log owned by this row. *)
  let* () =
    require
      (row.Trace.mem_count = List.length accesses
      && Array.length s.Receipt.mem = row.Trace.mem_count)
      "step: access count mismatch"
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
           let o = s.Receipt.mem.(k) in
           let* () = check_opening ~root:root_time ~what:"step.mem" o in
           let* () =
             require (o.Receipt.index = row.Trace.mem_pos + k) "step: mem index"
           in
           let* entry = decode_mem ~n_rows ~what:"step.mem" o in
           require
             (Checker.matches expected entry ~time:row.Trace.cycle)
             "step: access %d does not match instruction semantics" k)
         accesses)
  in
  (* Journal accumulator link. *)
  let* jacc = decode_chain ~what:"step.jacc" s.Receipt.jacc in
  let* jacc_next = decode_chain ~what:"step.jacc_next" s.Receipt.jacc_next in
  require
    (Zkflow_hash.Chain.equal (Checker.jacc_step ~program jacc next) jacc_next)
    "step: journal accumulator mismatch"

let check_sorted ~authenticated ~seal j (s : Receipt.sorted_check) =
  let check_opening = check_opening ~authenticated in
  let root = seal.Receipt.root_sorted in
  let* () = check_opening ~root ~what:"sorted.first" s.Receipt.first in
  let* () = check_opening ~root ~what:"sorted.second" s.Receipt.second in
  let* () = require (s.Receipt.first.Receipt.index = j) "sorted: index" in
  let* () = require (s.Receipt.second.Receipt.index = j + 1) "sorted: index+1" in
  let decode_mem = decode_mem ~n_rows:seal.Receipt.n_rows in
  let* e1 = decode_mem ~what:"sorted.first" s.Receipt.first in
  let* e2 = decode_mem ~what:"sorted.second" s.Receipt.second in
  Memcheck.check_adjacent e1 e2

(* A grand-product link of one column: [half] picks that column's value
   out of a shared z leaf. *)
let check_z ~authenticated ~alpha ~beta ~seal ~half ~log_root j (zc : Receipt.z_check) =
  let check_opening = check_opening ~authenticated in
  let z_root = seal.Receipt.root_z in
  let* () = check_opening ~root:z_root ~what:"z" zc.Receipt.z in
  let* () = check_opening ~root:z_root ~what:"z.next" zc.Receipt.z_next in
  let* () = check_opening ~root:log_root ~what:"z.entry" zc.Receipt.entry_next in
  let* () = require (zc.Receipt.z.Receipt.index = j) "z: index" in
  let* () = require (zc.Receipt.z_next.Receipt.index = j + 1) "z: index+1" in
  let* () = require (zc.Receipt.entry_next.Receipt.index = j + 1) "z: entry index" in
  let* zj = decode_z ~what:"z" zc.Receipt.z in
  let* zj1 = decode_z ~what:"z.next" zc.Receipt.z_next in
  let* entry =
    decode_mem ~n_rows:seal.Receipt.n_rows ~what:"z.entry" zc.Receipt.entry_next
  in
  require
    (Fp2.equal (half zj1) (Fp2.mul (half zj) (Memcheck.term ~alpha ~beta entry)))
    "z: grand-product link broken"

let check_boundary ~authenticated ~program ~claim ~seal ~alpha ~beta =
  let check_opening = check_opening ~authenticated in
  let b = seal.Receipt.boundary in
  let { Receipt.root_rows; root_time; root_sorted; root_jacc; root_z; n_rows; n_mem; _ } =
    seal
  in
  let* () = check_opening ~root:root_rows ~what:"bd.row0" b.Receipt.row0 in
  let* () = check_opening ~root:root_rows ~what:"bd.last" b.Receipt.last_row in
  let* () = check_opening ~root:root_jacc ~what:"bd.jacc0" b.Receipt.jacc0 in
  let* () = check_opening ~root:root_jacc ~what:"bd.jacc_last" b.Receipt.jacc_last in
  let* () = check_opening ~root:root_time ~what:"bd.time0" b.Receipt.time0 in
  let* () = check_opening ~root:root_sorted ~what:"bd.sorted0" b.Receipt.sorted0 in
  let* () = check_opening ~root:root_z ~what:"bd.z0" b.Receipt.z0 in
  let* () = check_opening ~root:root_z ~what:"bd.z_last" b.Receipt.z_last in
  let* () =
    require
      (b.Receipt.row0.Receipt.index = 0
      && b.Receipt.last_row.Receipt.index = n_rows - 1
      && b.Receipt.jacc0.Receipt.index = 0
      && b.Receipt.jacc_last.Receipt.index = n_rows - 1
      && b.Receipt.time0.Receipt.index = 0
      && b.Receipt.sorted0.Receipt.index = 0
      && b.Receipt.z0.Receipt.index = 0
      && b.Receipt.z_last.Receipt.index = n_mem - 1)
      "boundary: wrong indices"
  in
  (* Entry conditions. *)
  let* row0 = decode_row ~what:"bd.row0" b.Receipt.row0 in
  let* () =
    require
      (row0.Trace.cycle = 0 && row0.Trace.pc = 0 && row0.Trace.mem_pos = 0)
      "boundary: execution must start at pc 0"
  in
  let* jacc0 = decode_chain ~what:"bd.jacc0" b.Receipt.jacc0 in
  let* () =
    require
      (Zkflow_hash.Chain.equal
         (Checker.jacc_step ~program Zkflow_hash.Chain.genesis row0)
         jacc0)
      "boundary: journal accumulator base"
  in
  (* Exit conditions. *)
  let* last = decode_row ~what:"bd.last" b.Receipt.last_row in
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
  let* jacc_last = decode_chain ~what:"bd.jacc_last" b.Receipt.jacc_last in
  let* () =
    require
      (D.equal (Zkflow_hash.Chain.head jacc_last) (Receipt.journal_digest claim))
      "boundary: journal does not match accumulator"
  in
  (* Memory-argument boundaries. *)
  let* sorted0 = decode_mem ~n_rows ~what:"bd.sorted0" b.Receipt.sorted0 in
  let* () = Memcheck.check_first sorted0 in
  let* time0 = decode_mem ~n_rows ~what:"bd.time0" b.Receipt.time0 in
  let* zt0, zs0 = decode_z ~what:"bd.z0" b.Receipt.z0 in
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
  let* zt_last, zs_last = decode_z ~what:"bd.z_last" b.Receipt.z_last in
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
  let* () = require (seal.Receipt.n_rows >= 1) "verify: empty trace" in
  (* Access times are fingerprinted mod p, so they must stay below it. *)
  let* () =
    require (seal.Receipt.n_rows < F.p) "verify: trace longer than the field order"
  in
  let* () = require (seal.Receipt.n_mem >= 1) "verify: empty access log" in
  let queries = seal.Receipt.params.Params.queries in
  let challenges, _ =
    Fs.derive ~claim ~queries ~n_rows:seal.Receipt.n_rows
      ~n_mem:seal.Receipt.n_mem ~root_rows:seal.Receipt.root_rows
      ~root_time:seal.Receipt.root_time ~root_sorted:seal.Receipt.root_sorted
      ~root_jacc:seal.Receipt.root_jacc
      ~commit_z:(fun ~alpha:_ ~beta:_ -> seal.Receipt.root_z)
  in
  let { Fs.alpha; beta; step_idx; sorted_idx; zt_idx; zs_idx } = challenges in
  let* () =
    require
      (Array.length seal.Receipt.steps = Array.length step_idx
      && Array.length seal.Receipt.sorteds = Array.length sorted_idx
      && Array.length seal.Receipt.zs_time = Array.length zt_idx
      && Array.length seal.Receipt.zs_sorted = Array.length zs_idx)
      "verify: check counts do not match challenge counts"
  in
  let authenticated = paths_authenticate seal in
  let* () =
    all
      (List.concat
         [
           List.init (Array.length step_idx) (fun k () ->
               check_step ~authenticated ~program ~seal step_idx.(k)
                 seal.Receipt.steps.(k));
           List.init (Array.length sorted_idx) (fun k () ->
               check_sorted ~authenticated ~seal sorted_idx.(k) seal.Receipt.sorteds.(k));
           List.init (Array.length zt_idx) (fun k () ->
               check_z ~authenticated ~alpha ~beta ~seal ~half:fst
                 ~log_root:seal.Receipt.root_time zt_idx.(k)
                 seal.Receipt.zs_time.(k));
           List.init (Array.length zs_idx) (fun k () ->
               check_z ~authenticated ~alpha ~beta ~seal ~half:snd
                 ~log_root:seal.Receipt.root_sorted zs_idx.(k)
                 seal.Receipt.zs_sorted.(k));
         ])
  in
  check_boundary ~authenticated ~program ~claim ~seal ~alpha ~beta

let check ~program t = Result.is_ok (verify ~program t)
