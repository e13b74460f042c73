open Zkflow_zkvm
open Zkflow_zkproof
open Asm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small but representative guest: reads words, branches, stores,
   loads, hashes memory with the accelerator, commits results. *)
let demo_guest =
  assemble
    [
      (* sum input words until a zero sentinel; store each to memory *)
      li s9 5000;
      li s10 0;
      label "loop";
      read_word t0;
      beq t0 zero "donesum";
      add s10 s10 t0;
      sw t0 s9 0;
      addi s9 s9 1;
      j "loop";
      label "donesum";
      commit s10;
      (* hash the stored words *)
      li t1 5000;
      sub t2 s9 t1;
      sha ~src:t1 ~words:t2 ~dst:s11;
      li s11 6000;
      li t1 5000;
      sub t2 s9 t1;
      sha ~src:t1 ~words:t2 ~dst:s11;
      li a0 6000;
      li a1 8;
      call "gl_commit_words";
      halt 0;
      Guestlib.commit_words_fn;
    ]

(* The record views of a run's recorded rows and log entries. *)
let records rows = Array.init (Trace.n_rows rows) (fun i -> Result.get_ok (Trace.row rows i))
let entries_of log = Array.init (Trace.n_entries log) (Trace.mem_at log)

let demo_input = [| 10; 20; 30; 40; 0 |]

let prove_demo () =
  match Prove.prove demo_guest ~input:demo_input with
  | Ok (receipt, run) -> (receipt, run)
  | Error e -> Alcotest.fail ("prove failed: " ^ e)

let test_prove_verify_roundtrip () =
  let receipt, run = prove_demo () in
  check_int "sum committed" 100 run.Machine.journal.(0);
  (match Verify.verify ~program:demo_guest receipt with
   | Ok () -> ()
   | Error e -> Alcotest.fail ("verify failed: " ^ e));
  check_bool "check" true (Verify.check ~program:demo_guest receipt)

let test_reprove_identical () =
  (* Proving one traced run twice, or a recomputed run of the same
     guest and input, yields the same receipt bytes; a proof with
     other parameters over the same run still verifies. *)
  let run = Machine.run ~trace:true demo_guest ~input:demo_input in
  let r1 = Result.get_ok (Prove.prove_result demo_guest run) in
  let r2 = Result.get_ok (Prove.prove_result demo_guest run) in
  check_bool "identical receipts" true (Receipt.encode r1 = Receipt.encode r2);
  let r3 =
    Result.get_ok (Prove.prove_result ~params:(Params.make ~queries:8) demo_guest run)
  in
  check_bool "other params verify" true (Verify.check ~program:demo_guest r3);
  let run' = Machine.run ~trace:true demo_guest ~input:demo_input in
  let r4 = Result.get_ok (Prove.prove_result demo_guest run') in
  check_bool "recomputed run, same receipt bytes" true (Receipt.encode r1 = Receipt.encode r4)

let test_verify_rejects_wrong_program () =
  let receipt, _ = prove_demo () in
  let other = assemble [ li t0 1; halt 0 ] in
  check_bool "wrong program" false (Verify.check ~program:other receipt)

let test_verify_rejects_tampered_journal () =
  let receipt, _ = prove_demo () in
  let claim = receipt.Receipt.claim in
  let journal = Array.copy claim.Receipt.journal in
  journal.(0) <- journal.(0) + 1;
  let tampered = { receipt with Receipt.claim = { claim with Receipt.journal } } in
  check_bool "tampered journal" false (Verify.check ~program:demo_guest tampered)

let test_verify_rejects_tampered_exit_code () =
  let receipt, _ = prove_demo () in
  let claim = receipt.Receipt.claim in
  let tampered =
    { receipt with Receipt.claim = { claim with Receipt.exit_code = 1 } }
  in
  check_bool "tampered exit" false (Verify.check ~program:demo_guest tampered)

let test_verify_rejects_tampered_root () =
  let receipt, _ = prove_demo () in
  let seal = receipt.Receipt.seal in
  let tampered =
    {
      receipt with
      Receipt.seal =
        { seal with Receipt.root_rows = Zkflow_hash.Digest32.hash_string "evil" };
    }
  in
  check_bool "tampered root" false (Verify.check ~program:demo_guest tampered)

let test_verify_rejects_tampered_opening () =
  let receipt, _ = prove_demo () in
  let seal = receipt.Receipt.seal in
  let leaves = Array.copy seal.Receipt.rows.Receipt.leaves in
  let leaf = Bytes.copy leaves.(0) in
  Bytes.set leaf 0 (Char.chr (Char.code (Bytes.get leaf 0) lxor 1));
  leaves.(0) <- leaf;
  let rows = { seal.Receipt.rows with Receipt.leaves } in
  let tampered = { receipt with Receipt.seal = { seal with Receipt.rows } } in
  check_bool "tampered leaf" false (Verify.check ~program:demo_guest tampered)

let test_verify_rejects_truncated_checks () =
  let receipt, _ = prove_demo () in
  let seal = receipt.Receipt.seal in
  let rows = { seal.Receipt.rows with Receipt.leaves = [||] } in
  let tampered = { receipt with Receipt.seal = { seal with Receipt.rows } } in
  check_bool "no rows opened" false (Verify.check ~program:demo_guest tampered)

let test_receipt_encode_decode () =
  let receipt, _ = prove_demo () in
  let b = Receipt.encode receipt in
  match Receipt.decode b with
  | Error e -> Alcotest.fail e
  | Ok receipt' ->
    check_bool "decoded verifies" true (Verify.check ~program:demo_guest receipt');
    check_int "size accounting" (Bytes.length b) (Receipt.size receipt)

let test_receipt_decode_garbage () =
  check_bool "garbage" true (Result.is_error (Receipt.decode (Bytes.of_string "nonsense")));
  let receipt, _ = prove_demo () in
  let b = Receipt.encode receipt in
  let cut = Bytes.sub b 0 (Bytes.length b / 2) in
  check_bool "truncated" true (Result.is_error (Receipt.decode cut))

let test_prove_rejects_nonzero_exit () =
  let guest = assemble [ halt 3 ] in
  match Prove.prove guest ~input:[||] with
  | Ok _ -> Alcotest.fail "expected refusal"
  | Error e ->
    check_bool "mentions exit" true
      (String.length e > 0 && String.sub e 0 5 = "prove")

let test_prove_rejects_trap () =
  let guest = assemble [ read_word t0; halt 0 ] in
  match Prove.prove guest ~input:[||] with
  | Ok _ -> Alcotest.fail "expected trap error"
  | Error e -> check_bool "mentions trap" true (String.length e > 0)

let test_prove_rejects_untraced_run () =
  let guest = assemble [ halt 0 ] in
  let run = Machine.run guest ~input:[||] in
  check_bool "untraced" true (Result.is_error (Prove.prove_result guest run))

(* The memory check needs each address's accesses in (time,
   read-before-write) order, as the machine logs them. A log that breaks
   it is refused with an [Error] that names the pair, never raised. *)
let test_prove_rejects_disordered_log () =
  let run = Machine.run ~trace:true demo_guest ~input:demo_input in
  let log = entries_of run.Machine.memlog in
  let refused what entries =
    match
      Prove.prove_result demo_guest { run with Machine.memlog = Trace.log_of_entries entries }
    with
    | Ok _ -> Alcotest.failf "%s: proved" what
    | Error e ->
      check_bool (what ^ ": " ^ e) true
        (String.starts_with ~prefix:"prove: memcheck: access log entries" e)
    | exception exn -> Alcotest.failf "%s: raised %s" what (Printexc.to_string exn)
  in
  let swapped i j =
    let a = Array.copy log in
    a.(i) <- log.(j);
    a.(j) <- log.(i);
    a
  in
  let n = Array.length log in
  let find p =
    let rec go i j =
      if i >= n then Alcotest.fail "no such pair in the demo log"
      else if j >= n then go (i + 1) (i + 2)
      else if p log.(i) log.(j) then (i, j)
      else go i (j + 1)
    in
    go 0 1
  in
  let same_addr (a : Trace.mem_entry) (b : Trace.mem_entry) = a.Trace.addr = b.Trace.addr in
  (* a row that reads and then writes one register: write first *)
  let i, j =
    find (fun a b ->
        same_addr a b && a.Trace.time = b.Trace.time && (not a.Trace.write) && b.Trace.write)
  in
  refused "same-cycle write before read" (swapped i j);
  (* two cycles touching one address: the later one first *)
  let i, j = find (fun a b -> same_addr a b && a.Trace.time < b.Trace.time) in
  refused "time goes backwards" (swapped i j)

(* ---- forged block rows ----

   A guest that moves eight words in, then out, with one block read
   and one block commit. Each forgery edits its honest run and is
   proved anyway; the verifier must refuse it with the named error.
   The trace is 13 rows, so 128 step draws over its 12 steps open the
   forged one with near certainty. *)

let block_guest =
  assemble
    [ li s9 100; li s10 8; read_block ~dst:s9 ~count:s10; commit_block ~src:s9 ~count:s10; halt 0 ]

let block_params = Params.make ~queries:128

(* Leaves of [Logleaf.per_leaf] consecutive entries each, the last
   holding the rest: the reference packing of an access-log column. *)
let chunks entries =
  let n = Array.length entries and k = Logleaf.per_leaf in
  Array.init ((n + k - 1) / k) (fun i ->
      let lo = k * i in
      Bytes.concat Bytes.empty (Array.to_list (Array.sub entries lo (Int.min k (n - lo)))))

let honest_leaves _column entries = chunks entries

(* The honest journal accumulator of [program]'s rows. *)
let jacc_of ~program rows =
  let chain = ref Zkflow_hash.Chain.genesis in
  Zkflow_util.Column.of_array
    (Array.init (Trace.n_rows rows) (fun i ->
         chain := Checker.jacc_step ~program !chain rows i;
         Zkflow_hash.Digest32.to_bytes (Zkflow_hash.Chain.head !chain)))

(* A prover built from the reference packing, that commits the journal
   accumulator [jacc] builds from the rows, and the leaves [leaves]
   groups each access-log column's entries into (the column named
   "time", "sorted" or "z"), instead of the honest ones; with neither
   given it is [Prove.prove_result]. *)
let prove_with ?(params = block_params) ?jacc ?(leaves = honest_leaves) program
    (run : Machine.result) =
  let module Tree = Zkflow_merkle.Tree in
  let module Column = Zkflow_util.Column in
  let node = Receipt.node in
  let rows = run.Machine.rows and memlog = run.Machine.memlog in
  let n_rows = Trace.n_rows rows and n_mem = Trace.n_entries memlog in
  let claim =
    { Receipt.image_id = Program.image_id program; exit_code = 0; journal = run.Machine.journal }
  in
  let perm = Result.get_ok (Memcheck.sort_perm memlog) in
  let entries col = Array.init (Column.length col) (Column.leaf col) in
  let time_entries = entries (Trace.encode_log memlog) in
  let packed name e = Column.of_array (leaves name e) in
  let rows_col = Trace.encode_rows rows
  and time_col = packed "time" time_entries
  and sorted_col = packed "sorted" (Array.map (Array.get time_entries) perm)
  and jacc_col = (match jacc with Some f -> f rows | None -> jacc_of ~program rows) in
  let rows_tree = Tree.of_leaves ~node rows_col
  and time_tree = Tree.of_leaves ~node time_col
  and sorted_tree = Tree.of_leaves ~node sorted_col
  and jacc_tree = Tree.of_leaves ~node jacc_col in
  let z = ref None in
  let commit_z ~alpha ~beta =
    let col = packed "z" (entries (Memcheck.z_leaves ~alpha ~beta memlog perm)) in
    let tree = Tree.of_leaves ~node col in
    z := Some (tree, col);
    Tree.root tree
  in
  let c, root_z =
    Fs.derive ~claim ~journal:(Receipt.journal_digest claim) ~queries:params.Params.queries
      ~n_rows ~n_mem ~root_rows:(Tree.root rows_tree) ~root_time:(Tree.root time_tree)
      ~root_sorted:(Tree.root sorted_tree) ~root_jacc:(Tree.root jacc_tree) ~commit_z
  in
  let z_tree, z_col = Option.get !z in
  let spans = Array.map (fun i -> (Trace.mem_pos rows i, Trace.mem_count rows i)) c.Fs.step_idx in
  let opened = Fs.opened ~n_rows ~n_mem ~spans c in
  let pick tree col set =
    {
      Receipt.leaves = Column.pick col set;
      helpers = (Zkflow_merkle.Multiproof.prove tree set).Zkflow_merkle.Multiproof.helpers;
    }
  in
  let log tree col entries = pick tree col (Logleaf.leaf_set entries) in
  {
    Receipt.claim;
    seal =
      {
        Receipt.params;
        n_rows;
        n_mem;
        root_rows = Tree.root rows_tree;
        root_time = Tree.root time_tree;
        root_sorted = Tree.root sorted_tree;
        root_jacc = Tree.root jacc_tree;
        root_z;
        rows = pick rows_tree rows_col opened.Fs.rows;
        jacc = pick jacc_tree jacc_col opened.Fs.rows;
        time = log time_tree time_col opened.Fs.time;
        sorted = log sorted_tree sorted_col opened.Fs.sorted;
        z = log z_tree z_col opened.Fs.z;
      };
  }

(* The honest accumulator, or one that skips block commits. *)
let jacc_column ~absorb_blocks rows =
  let col = Zkflow_util.Column.alloc (Trace.n_rows rows) ~size:(fun _ -> 32) in
  let chain = ref Zkflow_hash.Chain.genesis in
  Array.iteri
    (fun i (row : Trace.row) ->
      if absorb_blocks || not (Checker.is_commit_row ~program:block_guest row) then
        chain := Checker.jacc_step ~program:block_guest !chain rows i;
      Bytes.blit
        (Zkflow_hash.Digest32.unsafe_to_bytes (Zkflow_hash.Chain.head !chain))
        0 col.Zkflow_util.Column.data (32 * i) 32)
    (records rows);
  col

let test_forged_block_rows () =
  let run = Machine.run ~trace:true block_guest ~input:(Array.init 8 (fun i -> 1000 + i)) in
  check_bool "journal is the input" true (run.Machine.journal = Array.init 8 (fun i -> 1000 + i));
  let rows = records run.Machine.rows in
  let index call =
    let rec go i =
      let r = rows.(i) in
      if Program.fetch block_guest r.Trace.pc = Some Isa.Ecall && r.Trace.rs1 = call then i
      else go (i + 1)
    in
    go 0
  in
  let read = index 6 and commit = index 7 in
  let with_row i f =
    { run with Machine.rows = Trace.of_rows (Array.mapi (fun k r -> if k = i then f r else r) rows) }
  in
  let verdict (receipt : Receipt.t) =
    match Verify.verify ~program:block_guest receipt with Ok () -> "ok" | Error e -> e
  in
  let honest run = verdict (Result.get_ok (Prove.prove_result ~params:block_params block_guest run)) in
  let refused what needle got =
    check_bool (Printf.sprintf "%s: %s" what got) true
      (String.length got >= String.length needle
      && String.sub got 0 (String.length needle) = needle)
  in
  Alcotest.(check string) "honest run" "ok" (honest run);
  let aux r f = { r with Trace.aux = f (Array.copy r.Trace.aux) } in
  refused "count 0" "read block: count 0 outside 1..8"
    (honest (with_row read (fun r -> aux r (fun a -> a.(0) <- 0; a))));
  refused "count 9" "commit block: count 9 outside 1..8"
    (honest (with_row commit (fun r -> aux r (fun a -> a.(0) <- 9; Array.append a [| 0 |]))));
  refused "dst past RAM" "read block: words 268435452..268435459 outside RAM"
    (honest (with_row read (fun r -> { r with Trace.rs2 = Trace.ram_limit - 4 })));
  refused "src past RAM" "commit block: words 268435455..268435462 outside RAM"
    (honest (with_row commit (fun r -> { r with Trace.rs2 = Trace.ram_limit - 1 })));
  (* a committed word that differs from the RAM word it was read from,
     with a journal that agrees with the forged row *)
  let forged = with_row commit (fun r -> aux r (fun a -> a.(2) <- a.(2) + 1; a)) in
  let journal = Array.copy run.Machine.journal in
  journal.(0) <- journal.(0) + 1;
  refused "aux word off its RAM read" "step: access 4 does not match instruction semantics"
    (honest { forged with Machine.journal });
  (* committed words the accumulator never absorbed, under a journal
     that claims nothing was committed *)
  Alcotest.(check string) "test prover, honest accumulator" "ok"
    (verdict (prove_with ~jacc:(jacc_column ~absorb_blocks:true) block_guest run));
  refused "words the accumulator skips" "step: journal accumulator mismatch"
    (verdict
       (prove_with ~jacc:(jacc_column ~absorb_blocks:false) block_guest
          { run with Machine.journal = [||] }))

(* ---- packed access-log leaves ----

   The block guest's log, its entries regrouped into leaves other than
   the layout's by a prover that commits them anyway. The verifier
   must refuse each forged leaf by name at the first check that reads
   one of its entries; the rows, jacc and other log columns stay
   honest. *)

let contains ~needle s =
  let n = String.length needle in
  let rec go i = i + n <= String.length s && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_forged_packed_leaves () =
  let run = Machine.run ~trace:true block_guest ~input:(Array.init 8 (fun i -> 1000 + i)) in
  let n_mem = Trace.n_entries run.Machine.memlog and k = Logleaf.per_leaf in
  let last = (n_mem - 1) / k in
  let in_last = n_mem - (k * last) in
  let verdict leaves =
    match Verify.verify ~program:block_guest (prove_with ~leaves block_guest run) with
    | Ok () -> "ok"
    | Error e -> e
  in
  Alcotest.(check string) "reference packing" "ok" (verdict honest_leaves);
  let concat e lo len = Bytes.concat Bytes.empty (Array.to_list (Array.sub e lo len)) in
  (* the reference leaves of the column, leaf [i] replaced *)
  let with_leaf i leaf entries =
    let l = chunks entries in
    l.(i) <- leaf entries;
    l
  in
  let entries n expected = Printf.sprintf "%d entries where %d expected" n expected in
  let forgeries =
    [
      ( "one entry too many",
        with_leaf 0 (fun e -> Bytes.cat (concat e 0 k) (concat e 0 1)),
        entries (k + 1) k );
      ( "one entry too few",
        with_leaf last (fun e -> concat e (k * last) (in_last - 1)),
        entries (in_last - 1) in_last );
      ( "a trailing byte",
        with_leaf 0 (fun e -> Bytes.cat (concat e 0 k) (Bytes.make 1 '\000')),
        "trailing bytes" );
      ("a short leaf not the last", with_leaf 0 (fun e -> concat e 0 (k - 1)), entries (k - 1) k);
    ]
  in
  List.iter
    (fun (column, kind) ->
      List.iter
        (fun (what, forge, refusal) ->
          let got =
            verdict (fun name e -> if name = column then forge e else chunks e)
          in
          check_bool
            (Printf.sprintf "%s leaf, %s: %s" column what got)
            true
            (contains ~needle:(kind ^ ": " ^ refusal) got))
        forgeries)
    [ ("time", "bad mem leaf"); ("sorted", "bad mem leaf"); ("z", "bad z leaf") ]

(* Guests whose logs hold n_mem ≡ 0, 1, 2 and 3 (mod 4) entries, down
   to a lone halt ecall, whose four register reads are a log of one
   leaf. Each proves and verifies, and its receipt is the reference
   packing's, ⌈n_mem / 4⌉ leaves per log column, byte for byte. A body
   touches only t0–t2 and s2–s3, so the ecall halts with exit code 0;
   [li] adds one log entry, which pads the log to the residue. *)
let packed_run (residue, body) =
  let k = Logleaf.per_leaf in
  let guest pad = assemble (List.concat body @ List.init pad (fun _ -> li t0 1) @ [ ecall ]) in
  let n0 = Trace.n_entries (Machine.run ~trace:true (guest 0) ~input:[||]).Machine.memlog in
  let program = guest ((((residue - n0) mod k) + k) mod k) in
  (program, Machine.run ~trace:true program ~input:[||])

let packed_round_trip ((residue, _) as case) =
  let program, run = packed_run case in
  let n_mem = Trace.n_entries run.Machine.memlog in
  let params = Params.make ~queries:8 in
  match Prove.prove_result ~params program run with
  | Error e -> QCheck.Test.fail_reportf "prove: %s" e
  | Ok receipt ->
    let k = Logleaf.per_leaf in
    n_mem mod k = residue
    && Logleaf.count n_mem = (n_mem + k - 1) / k
    && Verify.verify ~program receipt = Ok ()
    && Receipt.encode receipt = Receipt.encode (prove_with ~params program run)

let gen_packed_guest =
  let open QCheck.Gen in
  let reg = oneofl [ t0; t1; t2; s2; s3 ] in
  let instr =
    oneof
      [
        map2 (fun rd v -> [ li rd v ]) reg (int_bound 1000);
        map2 (fun rd rs -> [ addi rd rs 1 ]) reg reg;
        map3 (fun rd a b -> [ add rd a b ]) reg reg reg;
        map2 (fun rs off -> [ sw rs zero (100 + off) ]) reg (int_bound 7);
        map2 (fun rd off -> [ lw rd zero (100 + off) ]) reg (int_bound 7);
      ]
  in
  pair (int_bound (Logleaf.per_leaf - 1)) (list_size (int_bound 12) instr)

let prop_packed_round_trip =
  QCheck.Test.make ~name:"packed log leaves round-trip (every residue)" ~count:60
    (QCheck.make
       ~print:(fun (r, body) -> Printf.sprintf "residue %d, %d instructions" r (List.length body))
       gen_packed_guest)
    packed_round_trip

let test_packed_small_logs () =
  check_bool "lone halt: a one-leaf log" true (packed_round_trip (0, []));
  let _, run = packed_run (0, []) in
  check_int "one leaf" 1 (Logleaf.count (Trace.n_entries run.Machine.memlog));
  List.iter
    (fun r ->
      check_bool (Printf.sprintf "residue %d" r) true (packed_round_trip (r, [ [ li t1 7 ] ])))
    [ 0; 1; 2; 3 ]

let test_params_respected () =
  let params = Params.make ~queries:8 in
  match Prove.prove ~params demo_guest ~input:demo_input with
  | Error e -> Alcotest.fail e
  | Ok (receipt, _) ->
    check_int "queries" 8 receipt.Receipt.seal.Receipt.params.Params.queries;
    (* rows 0 and n − 1, and a pair of rows per spot check *)
    check_bool "rows opened" true
      (Array.length receipt.Receipt.seal.Receipt.rows.Receipt.leaves <= (2 * 8) + 2);
    check_bool "verifies" true (Verify.check ~program:demo_guest receipt)

let test_seal_smaller_with_fewer_queries () =
  let size q =
    match Prove.prove ~params:(Params.make ~queries:q) demo_guest ~input:demo_input with
    | Ok (r, _) -> Receipt.seal_size r
    | Error e -> Alcotest.fail e
  in
  check_bool "8 < 48 queries" true (size 8 < size 48)

let test_journal_size () =
  let receipt, _ = prove_demo () in
  (* 1 sum word + 8 digest words *)
  check_int "journal bytes" 36 (Receipt.journal_size receipt)

(* ---- minimal traces ---- *)

let test_minimal_guest_proves () =
  (* Smallest possible guest: one halt ecall → 3 rows (li, li, ecall). *)
  let guest = assemble [ halt 0 ] in
  match Prove.prove guest ~input:[||] with
  | Error e -> Alcotest.fail e
  | Ok (receipt, run) ->
    check_int "rows" run.Machine.cycles receipt.Receipt.seal.Receipt.n_rows;
    check_bool "verifies" true (Verify.check ~program:guest receipt)

let test_sha_only_guest_proves () =
  (* Exercises multi-block SHA rows inside the argument. *)
  let guest =
    assemble
      [
        li s9 100;
        li t0 77;
        sw t0 s9 0;
        li t4 20;
        sha ~src:s9 ~words:t4 ~dst:s10;
        halt 0;
      ]
  in
  match Prove.prove guest ~input:[||] with
  | Error e -> Alcotest.fail e
  | Ok (receipt, _) ->
    check_bool "verifies" true (Verify.check ~program:guest receipt)

(* ---- wrap ---- *)

let vkey = Wrap.setup ~seed:(Bytes.of_string "test-setup-seed")

let test_wrap_roundtrip () =
  let receipt, _ = prove_demo () in
  match Wrap.wrap vkey ~program:demo_guest receipt with
  | Error e -> Alcotest.fail e
  | Ok w ->
    check_int "constant size" Wrap.proof_size (Bytes.length w.Wrap.seal256);
    check_bool "verifies" true (Wrap.verify vkey w)

let test_wrap_rejects_bad_inner () =
  let receipt, _ = prove_demo () in
  let claim = receipt.Receipt.claim in
  let tampered =
    { receipt with Receipt.claim = { claim with Receipt.exit_code = 1 } }
  in
  check_bool "bad inner" true
    (Result.is_error (Wrap.wrap vkey ~program:demo_guest tampered))

let test_wrap_rejects_tampering () =
  let receipt, _ = prove_demo () in
  match Wrap.wrap vkey ~program:demo_guest receipt with
  | Error e -> Alcotest.fail e
  | Ok w ->
    let journal = Array.copy w.Wrap.journal in
    journal.(0) <- journal.(0) + 1;
    check_bool "journal tamper" false (Wrap.verify vkey { w with Wrap.journal });
    let seal = Bytes.copy w.Wrap.seal256 in
    Bytes.set seal 0 '\255';
    check_bool "seal tamper" false (Wrap.verify vkey { w with Wrap.seal256 = seal });
    let other_key = Wrap.setup ~seed:(Bytes.of_string "other") in
    check_bool "wrong key" false (Wrap.verify other_key w)

let test_wrap_encode_decode () =
  let receipt, _ = prove_demo () in
  match Wrap.wrap vkey ~program:demo_guest receipt with
  | Error e -> Alcotest.fail e
  | Ok w -> (
    match Wrap.decode (Wrap.encode w) with
    | Error e -> Alcotest.fail e
    | Ok w' -> check_bool "decoded verifies" true (Wrap.verify vkey w'))

(* ---- scaling sanity (Table 1 / Fig 4 shape at tiny scale) ---- *)

let hashing_guest n =
  ( assemble
      [
        li a0 1000;
        li a1 n;
        call "gl_read_words";
        li s9 1000;
        li t4 n;
        sha ~src:s9 ~words:t4 ~dst:s10;
        li s10 3000;
        li t4 n;
        sha ~src:s9 ~words:t4 ~dst:s10;
        li a0 3000;
        li a1 8;
        call "gl_commit_words";
        halt 0;
        Guestlib.read_words_fn;
        Guestlib.commit_words_fn;
      ],
    Array.init n (fun i -> i * 7) )

let test_receipt_grows_sublinearly () =
  (* Seal growth is O(log n) per opening: going 16× on input size must
     far less than 16× the seal. The guest reads eight words per trace
     row, so the inputs start at 256 words, where the rows, not the
     fixed code around them, grow with the input. *)
  let size n =
    let guest, input = hashing_guest n in
    match Prove.prove guest ~input with
    | Ok (r, _) -> (Receipt.seal_size r, r.Receipt.seal.Receipt.n_rows)
    | Error e -> Alcotest.fail e
  in
  let s1, n1 = size 256 in
  let s2, n2 = size 4096 in
  check_bool "rows grew ~16x" true (n2 > 10 * n1);
  check_bool "seal sublinear" true (float_of_int s2 < 3.0 *. float_of_int s1)

(* ---- memcheck unit tests ---- *)

module Fp2 = Zkflow_field.Fp2

let entry ~addr ~time ~write ~value = { Trace.addr; time; write; value }

(* A comparator sort by [mem_order], ties by log index: the reference
   order for [Memcheck.sort_perm]. *)
let comparator_perm log =
  let perm = Array.init (Array.length log) Fun.id in
  Array.sort
    (fun i j ->
      let c = Trace.mem_order log.(i) log.(j) in
      if c <> 0 then c else Int.compare i j)
    perm;
  perm

(* Both grand-product columns folded one boxed [term] at a time and
   encoded by [encode_z]: the reference for [Memcheck.z_leaves]. *)
let reference_z_leaves ~alpha ~beta log perm =
  let time = ref Fp2.one and sorted = ref Fp2.one in
  Array.mapi
    (fun j e ->
      time := Fp2.mul !time (Memcheck.term ~alpha ~beta e);
      sorted := Fp2.mul !sorted (Memcheck.term ~alpha ~beta log.(perm.(j)));
      Memcheck.encode_z ~time:!time ~sorted:!sorted)
    log

let sort_perm_ok log =
  match Memcheck.sort_perm (Trace.log_of_entries log) with
  | Ok perm -> perm
  | Error e -> Alcotest.fail e

let test_memcheck_sort_order () =
  (* A time-ordered log, as the machine writes it. *)
  let log =
    [|
      entry ~addr:3 ~time:1 ~write:true ~value:4;
      entry ~addr:5 ~time:2 ~write:false ~value:7;
      entry ~addr:5 ~time:2 ~write:true ~value:1;
      entry ~addr:3 ~time:9 ~write:false ~value:0;
    |]
  in
  let sorted = Array.map (fun i -> log.(i)) (sort_perm_ok log) in
  (* (3,1,W) (3,9,R) (5,2,R) (5,2,W): reads precede the same-cycle write *)
  Alcotest.(check (list (triple int int bool)))
    "order"
    [ (3, 1, true); (3, 9, false); (5, 2, false); (5, 2, true) ]
    (Array.to_list (Array.map (fun e -> (e.Trace.addr, e.Trace.time, e.Trace.write)) sorted));
  (* The same entries out of log order: the write at (5, 2) before its
     read, and address 3 going back in time. *)
  check_bool "out-of-order log refused" true
    (Result.is_error
       (Memcheck.sort_perm (Trace.log_of_entries [| log.(2); log.(3); log.(1); log.(0) |])))

(* The access logs of the demo, aggregation and query guests. *)
let guest_logs =
  lazy
    (let module Core = Zkflow_core in
     let module Gen = Zkflow_netflow.Gen in
     let rng = Zkflow_util.Rng.create 13L in
     let batches =
       List.init 2 (fun router_id ->
           let records = Gen.records rng Gen.default_profile ~router_id ~count:6 in
           (Zkflow_netflow.Export.batch_hash records, records))
     in
     let clog = Core.Clog.apply_batch Core.Clog.empty (Array.concat (List.map snd batches)) in
     let memlog = function
       | Ok (run : Machine.result) -> entries_of run.Machine.memlog
       | Error e -> Alcotest.fail e
     in
     [
       ("demo", entries_of (Machine.run ~trace:true demo_guest ~input:demo_input).Machine.memlog);
       ("aggregation", memlog (Core.Aggregate.execute ~prev:Core.Clog.empty batches));
       ("query", memlog (Core.Query.execute ~clog Core.Query.flow_count));
     ])

let test_sort_with_perm_consistent () =
  List.iter
    (fun (name, log) ->
      Alcotest.(check (array int)) (name ^ " perm") (comparator_perm log) (sort_perm_ok log))
    (Lazy.force guest_logs)

let test_memcheck_adjacent_rules () =
  let ok = function Ok () -> true | Error _ -> false in
  (* write after anything: fine *)
  check_bool "write ok" true
    (ok (Memcheck.check_adjacent (entry ~addr:1 ~time:0 ~write:false ~value:0)
           (entry ~addr:1 ~time:1 ~write:true ~value:9)));
  (* read sees previous value *)
  check_bool "read match" true
    (ok (Memcheck.check_adjacent (entry ~addr:1 ~time:0 ~write:true ~value:9)
           (entry ~addr:1 ~time:1 ~write:false ~value:9)));
  check_bool "read mismatch" false
    (ok (Memcheck.check_adjacent (entry ~addr:1 ~time:0 ~write:true ~value:9)
           (entry ~addr:1 ~time:1 ~write:false ~value:8)));
  (* fresh address read must see 0 *)
  check_bool "fresh zero" true
    (ok (Memcheck.check_adjacent (entry ~addr:1 ~time:5 ~write:true ~value:9)
           (entry ~addr:2 ~time:0 ~write:false ~value:0)));
  check_bool "fresh nonzero" false
    (ok (Memcheck.check_adjacent (entry ~addr:1 ~time:5 ~write:true ~value:9)
           (entry ~addr:2 ~time:0 ~write:false ~value:3)));
  (* disorder rejected *)
  check_bool "out of order" false
    (ok (Memcheck.check_adjacent (entry ~addr:2 ~time:0 ~write:false ~value:0)
           (entry ~addr:1 ~time:0 ~write:false ~value:0)));
  check_bool "first read nonzero" false (ok (Memcheck.check_first (entry ~addr:0 ~time:0 ~write:false ~value:1)));
  check_bool "first write any" true (ok (Memcheck.check_first (entry ~addr:0 ~time:0 ~write:true ~value:1)))

(* The access-log leaf of one entry. *)
let mem_leaf e = Zkflow_util.Column.leaf (Trace.encode_log (Trace.log_of_entries [| e |])) 0

let final_products (col : Zkflow_util.Column.t) =
  match Memcheck.decode_z (Zkflow_util.Column.leaf col (Zkflow_util.Column.length col - 1)) with
  | Ok z -> z
  | Error e -> Alcotest.fail e

let test_memcheck_products_multiset () =
  let rng = Zkflow_util.Rng.create 0xabcL in
  let alpha = Fp2.random rng and beta = Fp2.random rng in
  let log =
    Array.init 20 (fun i ->
        entry ~addr:(i mod 5) ~time:i ~write:(i mod 3 = 0)
          ~value:(i * 1000003 land 0xffffffff))
  in
  let perm = sort_perm_ok log in
  let zt, zs = final_products (Memcheck.z_leaves ~alpha ~beta (Trace.log_of_entries log) perm) in
  check_bool "final products equal (permutation)" true (Fp2.equal zt zs);
  (* one entry counted twice and another dropped breaks equality *)
  let forged = Array.copy perm in
  forged.(7) <- forged.(8);
  let zt', zs' =
    final_products (Memcheck.z_leaves ~alpha ~beta (Trace.log_of_entries log) forged)
  in
  check_bool "time column unchanged" true (Fp2.equal zt zt');
  check_bool "forged multiset detected" false (Fp2.equal zt' zs')

(* Machine-shaped logs: cycle by cycle, a row's reads (a register may be
   read twice) and then its writes, to distinct addresses. *)
let gen_machine_log =
  let open QCheck.Gen in
  let addr =
    frequency
      [
        (3, map (fun r -> Trace.reg_base + r) (int_bound 31));
        (1, oneofl [ 0; 1; 5000; Trace.ram_limit - 1 ]);
        (1, int_bound (Trace.ram_limit - 1));
      ]
  in
  let access = pair addr (oneof [ int_range 0 0xffffffff; oneofl [ 0; 0xffffffff ] ]) in
  let reads =
    map2
      (fun rs twice -> match rs with r :: _ when twice -> r :: rs | _ -> rs)
      (list_size (int_bound 3) access) bool
  in
  let writes =
    map (List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)) (list_size (int_bound 2) access)
  in
  map
    (fun rows ->
      Array.of_list
        (List.concat
           (List.mapi
              (fun time (reads, writes) ->
                let at write (addr, value) = entry ~addr ~time ~write ~value in
                List.map (at false) reads @ List.map (at true) writes)
              rows)))
    (list_size (int_range 1 80) (pair reads writes))

let pp_log log =
  String.concat "; "
    (Array.to_list
       (Array.map
          (fun e ->
            Printf.sprintf "%d@%d%s%d" e.Trace.addr e.Trace.time
              (if e.Trace.write then "W" else "R") e.Trace.value)
          log))

let prop_sort_perm_is_comparator_order =
  QCheck.Test.make ~name:"sort_perm = comparator order (machine logs)" ~count:300
    (QCheck.make ~print:pp_log gen_machine_log)
    (fun log -> Memcheck.sort_perm (Trace.log_of_entries log) = Ok (comparator_perm log))

(* Any entries, not only machine-made ones: full-range coordinates and
   the domain's edges. *)
let gen_z_case =
  let open QCheck.Gen in
  let p = Zkflow_field.Babybear.p in
  let coord edges = frequency [ (2, oneofl edges); (1, int_bound 100); (1, int) ] in
  let any_entry =
    map2
      (fun (addr, time) (write, value) -> entry ~addr ~time ~write ~value)
      (pair
         (coord [ 0; Trace.ram_limit - 1; Trace.reg_base; Trace.reg_base + 31; p - 1; p ])
         (coord [ 0; 1; p - 1; p; p + 3 ]))
      (pair bool (coord [ 0; 0xffff; 0x10000; 0xffffffff; max_int ]))
  in
  let fp2 = map2 Fp2.make (int_bound (p - 1)) (int_bound (p - 1)) in
  let shuffle n st =
    let a = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  int_range 1 40 >>= fun n ->
  array_size (return n) any_entry >>= fun log ->
  shuffle n >>= fun perm ->
  fp2 >>= fun alpha ->
  frequency [ (1, return Fp2.zero); (4, fp2) ] >>= fun beta ->
  (* Sometimes α is one entry's fingerprint, so that entry's term is 0. *)
  frequency [ (3, return None); (1, map Option.some (int_bound (n - 1))) ] >|= fun zero ->
  let alpha =
    match zero with
    | None -> alpha
    | Some k -> Fp2.sub alpha (Memcheck.term ~alpha ~beta log.(k))
  in
  (alpha, beta, log, perm)

let prop_z_leaves_match_term_fold =
  QCheck.Test.make ~name:"z_leaves = term fold + encode_z" ~count:300
    (QCheck.make
       ~print:(fun (alpha, beta, log, _) ->
         Format.asprintf "alpha=%a beta=%a log=[%s]" Fp2.pp alpha Fp2.pp beta (pp_log log))
       gen_z_case)
    (fun (alpha, beta, log, perm) ->
      let col = Memcheck.z_leaves ~alpha ~beta (Trace.log_of_entries log) perm in
      Zkflow_util.Column.length col = Array.length log
      && Array.for_all2 Bytes.equal (reference_z_leaves ~alpha ~beta log perm)
           (Array.init (Array.length log) (Zkflow_util.Column.leaf col)))

(* The fingerprint reduces every coordinate mod p, so a write at
   time t + p has the [term] of the write at t. Placed after a stale
   read in a forged sorted log, it passes every adjacency rule and the
   grand-product equality, hiding the write the read should have seen.
   The verifier's time bound is what refuses it. *)
let test_memcheck_aliased_write_refused () =
  let p = Zkflow_field.Babybear.p and a = Trace.reg_base + 5 in
  let time_log =
    [|
      entry ~addr:a ~time:1 ~write:true ~value:5;
      entry ~addr:a ~time:3 ~write:true ~value:7;
      entry ~addr:a ~time:4 ~write:false ~value:5;
    |]
  in
  let alias = { (time_log.(1)) with Trace.time = 3 + p } in
  let forged_sorted = [| time_log.(0); time_log.(2); alias |] in
  let rng = Zkflow_util.Rng.create 0xa11a5L in
  let alpha = Fp2.random rng and beta = Fp2.random rng in
  let product log =
    Array.fold_left (fun z e -> Fp2.mul z (Memcheck.term ~alpha ~beta e)) Fp2.one log
  in
  let ok = Result.is_ok in
  check_bool "alias has the same term" true
    (Fp2.equal (Memcheck.term ~alpha ~beta alias) (Memcheck.term ~alpha ~beta time_log.(1)));
  check_bool "forged log passes adjacency" true
    (ok (Memcheck.check_first forged_sorted.(0))
    && ok (Memcheck.check_adjacent forged_sorted.(0) forged_sorted.(1))
    && ok (Memcheck.check_adjacent forged_sorted.(1) forged_sorted.(2)));
  check_bool "forged log passes the products" true
    (Fp2.equal (product time_log) (product forged_sorted));
  check_bool "alias round-trips" true
    (Trace.decode_mem (mem_leaf alias) = Ok alias);
  check_bool "alias refused" false (ok (Memcheck.check_time ~n_rows:5 alias));
  check_bool "honest write accepted" true (ok (Memcheck.check_time ~n_rows:5 time_log.(1)))

(* Each coordinate just outside the domain the verifier enforces is
   refused, and each one on its edge is accepted. *)
let test_memcheck_entry_domain () =
  let w = entry ~addr:0 ~time:0 ~write:true ~value:0 in
  let decodes e = Result.is_ok (Trace.decode_mem (mem_leaf e)) in
  let edge what e = check_bool (what ^ " accepted") true (decodes e) in
  let outside what e = check_bool (what ^ " refused") false (decodes e) in
  edge "value 2^32 - 1" { w with Trace.value = 0xffffffff };
  outside "value 2^32" { w with Trace.value = 0x100000000 };
  edge "ram_limit - 1" { w with Trace.addr = Trace.ram_limit - 1 };
  outside "ram_limit" { w with Trace.addr = Trace.ram_limit };
  outside "reg_base - 1" { w with Trace.addr = Trace.reg_base - 1 };
  edge "reg_base" { w with Trace.addr = Trace.reg_base };
  edge "reg_base + 31" { w with Trace.addr = Trace.reg_base + 31 };
  outside "reg_base + 32" { w with Trace.addr = Trace.reg_base + 32 };
  let flag2 =
    let buf = Buffer.create 8 in
    List.iter (Zkflow_util.Varint.write buf) [ 0; 0; 2; 0 ];
    Buffer.to_bytes buf
  in
  check_bool "write flag 2 refused" true (Result.is_error (Trace.decode_mem flag2));
  let in_trace t = Result.is_ok (Memcheck.check_time ~n_rows:10 { w with Trace.time = t }) in
  check_bool "time n_rows - 1 accepted" true (in_trace 9);
  check_bool "time n_rows refused" false (in_trace 10);
  check_bool "negative time refused" false (in_trace (-1));
  (* A seal may not claim a trace as long as the field. *)
  let receipt, _ = prove_demo () in
  let seal = { receipt.Receipt.seal with Receipt.n_rows = Zkflow_field.Babybear.p } in
  Alcotest.(check (result unit string))
    "n_rows = p refused"
    (Error "verify: trace longer than the field order")
    (Verify.verify ~program:demo_guest { receipt with Receipt.seal })

(* A receipt over a log whose one access carries time p (the alias of
   cycle 0) is refused at the first opening of that entry, by the time
   bound rather than a later check. *)
let test_verify_refuses_aliased_time () =
  let guest = assemble [ li t0 1; halt 0 ] in
  let run = Machine.run ~trace:true guest ~input:[||] in
  let memlog = entries_of run.Machine.memlog in
  (* t0 is written once, by the first row, and never read. *)
  check_bool "entry 0 writes t0 at cycle 0" true
    (memlog.(0) = entry ~addr:(Trace.reg_base + 5) ~time:0 ~write:true ~value:1);
  memlog.(0) <- { (memlog.(0)) with Trace.time = Zkflow_field.Babybear.p };
  match Prove.prove_result guest { run with Machine.memlog = Trace.log_of_entries memlog } with
  | Error e -> Alcotest.fail e
  | Ok receipt ->
    Alcotest.(check (result unit string))
      "verdict"
      (Error
         (Printf.sprintf
            "step.mem: memcheck: access time %d outside the trace (n_rows %d)"
            Zkflow_field.Babybear.p (Trace.n_rows run.Machine.rows)))
      (Verify.verify ~program:guest receipt)

(* ---- receipt mutation fuzzing ---- *)

let test_receipt_mutation_fuzz () =
  let receipt, _ = prove_demo () in
  let encoded = Receipt.encode receipt in
  let rng = Zkflow_util.Rng.create 0xf077L in
  let crashes = ref 0 and accepted = ref 0 in
  for _ = 1 to 120 do
    let b = Bytes.copy encoded in
    let pos = Zkflow_util.Rng.int rng (Bytes.length b) in
    let bit = 1 lsl Zkflow_util.Rng.int rng 8 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor bit));
    match Receipt.decode b with
    | exception _ -> incr crashes
    | Error _ -> ()
    | Ok mutated ->
      if Bytes.equal (Receipt.encode mutated) encoded then ()
      else if Verify.check ~program:demo_guest mutated then incr accepted
  done;
  check_int "decoder never crashes" 0 !crashes;
  check_int "no mutated receipt verifies" 0 !accepted

(* ---- Params.soundness_bits ---- *)

let check_float = Alcotest.(check (float 1e-9))

let test_soundness_bits_formula () =
  (* -queries · log2(1 - bad_fraction): the escape probability of a
     prover who corrupted a [bad_fraction] of positions, in bits. With
     bad_fraction = 1/n this is exactly the (1 - 1/n)^queries bound. *)
  let bits q f = Params.soundness_bits ~bad_fraction:f (Params.make ~queries:q) in
  check_float "48 queries @ 5%" (-48. *. Float.log2 0.95) (bits 48 0.05);
  check_float "default convention is 5%"
    (bits Params.(default.queries) 0.05)
    (Params.soundness_bits Params.default);
  (* at 50% corruption each query halves the escape probability:
     exactly one bit per query *)
  check_float "one bit per query at 50%" 10. (bits 10 0.5);
  check_float "linear in queries" (2. *. bits 16 0.05) (bits 32 0.05)

let test_soundness_bits_monotone () =
  check_bool "more queries, more bits" true
    (Params.soundness_bits (Params.make ~queries:96)
    > Params.soundness_bits (Params.make ~queries:48));
  check_bool "positive" true (Params.soundness_bits (Params.make ~queries:1) > 0.)

let test_soundness_bits_rejects_bad_fraction () =
  let rejects f =
    match Params.soundness_bits ~bad_fraction:f Params.default with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "0 rejected" true (rejects 0.);
  check_bool "1 rejected" true (rejects 1.);
  check_bool "negative rejected" true (rejects (-0.1));
  check_bool "interior accepted" false (rejects 0.5)

(* ---- golden vectors ----

   Literals fixed before the SHA-256 kernel and the Merkle node hash
   were rewritten: the guests' image ids, and (below, with the seed
   receipts) the digest of one fixed-seed aggregation receipt. Any
   change to how the prover hashes (leaves, nodes, the jacc chain, the
   transcript) moves one of them. *)

module Core = Zkflow_core
module Gen = Zkflow_netflow.Gen

let golden_aggregation_image_id = "67f131c4bdcd6615d7c8edf5f8c7384c5e4691785cdcf141465ba3255aba0a27"
let golden_query_image_id = "452374fef226730d03be2180631a509ebefc0f66fa6a2158ae8ebb41d0f95f30"

let test_golden_image_ids () =
  let check_hex what expected d =
    Alcotest.(check string) what expected (Zkflow_hash.Digest32.to_hex d)
  in
  check_hex "aggregation guest" golden_aggregation_image_id
    (Core.Guests.aggregation_image_id ());
  check_hex "query guest" golden_query_image_id (Core.Guests.query_image_id ())

(* ---- golden verdicts ----

   One fixed-seed aggregation receipt and one query receipt over its
   CLog, each tampered in one place, and the exact [Verify.verify]
   result for every case. The cases were re-based when the seal moved
   to one multiproof per column root (seal v3): a tamper lands on a
   column's leaves or helpers, and a change to how openings are
   checked must reach the same first error, not only the same
   accept/reject bit. *)

module D32 = Zkflow_hash.Digest32

let seed_params = Params.make ~queries:8

let seed_round =
  lazy
    (let rng = Zkflow_util.Rng.create 13L in
     let batches =
       List.init 2 (fun router_id ->
           let records = Gen.records rng Gen.default_profile ~router_id ~count:6 in
           (Zkflow_netflow.Export.batch_hash records, records))
     in
     match Core.Aggregate.prove_round ~params:seed_params ~prev:Core.Clog.empty batches with
     | Ok r -> r
     | Error e -> Alcotest.fail ("prove_round failed: " ^ e))

let seed_receipts =
  lazy
    (let params = seed_params and round = Lazy.force seed_round in
     let query =
       match Core.Query.prove ~params ~clog:round.Core.Aggregate.clog Core.Query.flow_count with
       | Ok q -> q
       | Error e -> Alcotest.fail ("query prove failed: " ^ e)
     in
     [
       ("agg", Lazy.force Core.Guests.aggregation_program, round.Core.Aggregate.receipt);
       ("query", Lazy.force Core.Guests.query_program, query.Core.Query.receipt);
     ])

(* The seed aggregation receipt, the query program and the seed query
   receipt. *)
let seed_pair () =
  match Lazy.force seed_receipts with
  | [ (_, _, agg); (_, program, query) ] -> (agg, program, query)
  | _ -> assert false

(* The encoding digest and size of each seed receipt, and its five
   column roots. Seal v5 moved them: the time, sorted and z trees hold
   four access-log entries per leaf, and the guests compare digests in
   straight-line code without the unused copy routine, so the image
   ids, rows and access logs changed too. At seal v4 the sizes read
   20,530 (agg) and 18,435 (query) bytes. *)
let golden_aggregation_receipt_sha256 =
  "e3f78f7860c65bd1233b7bc4d2b675c2f88fd7b6be9560e3ca443ebf2730ef67"
let golden_receipt_bytes = [ ("agg", 18781); ("query", 16762) ]

(* The exact work behind each seed receipt: trace rows, access-log
   entries and guest cycles (one row per cycle). At seal v4, with the
   looping digest compare, they read 1,798 / 4,780 / 1,798 (agg) and
   1,071 / 2,833 / 1,071 (query); at seal v3, before the block ecalls,
   3,644 / 8,715 / 3,644 and 2,194 / 5,342 / 2,194. *)
let golden_work = [ ("agg", (1687, 4633, 1687)); ("query", (1034, 2784, 1034)) ]

let golden_roots =
  [
    ( "agg",
      [
        "fcf47d4cdc55b473da084632c6ce399131af9de5af374b71602a88920156ca4e";
        "435db9f47ba6a8fd4278b6b0ad2434b88f74450e7b6aaeaed301ba459a55f9cb";
        "962877bcc92cd71350f09fba746af999df45132e4e0513997325439333500a3c";
        "6e3140db359bca118a74f99c84f56ef51df9fddb899bba4dca0f31d45395f23a";
        "2cac98cf9a56c1eed602cde35d22c138d7f7250f7ee739bae98823f309c30159";
      ] );
    ( "query",
      [
        "9178dbcd2ff2eba19dfb091f15131a83f9d0753241fd62bea55408c0c773be60";
        "bb9b9931fdeb2fd9b4332d56ccc5c6784eb121833485508eb9bb70db81e628b7";
        "433040cd94d69f3407c0a23ba4e851b65ead242a55db94fe8b3347cdb1af2143";
        "e6209dd92d2311e98e1d3ef07a46a8af2a51153d2393867ff8d3eddf338500f8";
        "d552635947b9d6cb90e5add25a8ec1ccf4761c6efe0de7c9f1238939e63d2457";
      ] );
  ]

let test_golden_aggregation_receipt () =
  let agg, query_program, _ = seed_pair () in
  let cycles = function
    | "agg" -> (Lazy.force seed_round).Core.Aggregate.cycles
    | _ ->
      let clog = (Lazy.force seed_round).Core.Aggregate.clog in
      (Machine.run query_program ~input:(Core.Guests.query_input ~clog Core.Query.flow_count))
        .Machine.cycles
  in
  Alcotest.(check string) "receipt encoding sha256" golden_aggregation_receipt_sha256
    (Zkflow_util.Hexcodec.encode (Zkflow_hash.Sha256.digest (Receipt.encode agg)));
  List.iter
    (fun (name, _, (r : Receipt.t)) ->
      let s = r.Receipt.seal in
      Alcotest.(check int) (name ^ " receipt bytes") (List.assoc name golden_receipt_bytes)
        (Receipt.size r);
      Alcotest.(check (triple int int int)) (name ^ " rows, entries, cycles")
        (List.assoc name golden_work)
        (s.Receipt.n_rows, s.Receipt.n_mem, cycles name);
      Alcotest.(check (list string)) (name ^ " rows/time/sorted/jacc/z roots")
        (List.assoc name golden_roots)
        (List.map D32.to_hex
           Receipt.[ s.root_rows; s.root_time; s.root_sorted; s.root_jacc; s.root_z ]))
    (Lazy.force seed_receipts)

(* The challenges of an honest seal and the index sets they open,
   derived as the verifier derives them. *)
let opened_of (r : Receipt.t) =
  let s = r.Receipt.seal in
  let { Receipt.n_rows; n_mem; _ } = s in
  let c, _ =
    Fs.derive ~claim:r.Receipt.claim ~journal:(Receipt.journal_digest r.Receipt.claim)
      ~queries:s.Receipt.params.Params.queries ~n_rows ~n_mem
      ~root_rows:s.Receipt.root_rows ~root_time:s.Receipt.root_time
      ~root_sorted:s.Receipt.root_sorted ~root_jacc:s.Receipt.root_jacc
      ~commit_z:(fun ~alpha:_ ~beta:_ -> s.Receipt.root_z)
  in
  let rows = Fs.rows_opened ~n_rows c in
  let spans =
    Array.map
      (fun i ->
        match Trace.decode_row s.Receipt.rows.Receipt.leaves.(Fs.rank rows i) with
        | Ok row -> (row.Trace.mem_pos, row.Trace.mem_count)
        | Error e -> Alcotest.fail e)
      c.Fs.step_idx
  in
  (c, Fs.opened ~n_rows ~n_mem ~spans c)

(* A column of the seal, to read and to replace. *)
let columns =
  [
    ("rows", (fun (s : Receipt.seal) -> s.Receipt.rows), fun s c -> { s with Receipt.rows = c });
    ("sorted", (fun s -> s.Receipt.sorted), fun s c -> { s with Receipt.sorted = c });
    ("z", (fun s -> s.Receipt.z), fun s c -> { s with Receipt.z = c });
  ]

let on_column name f (s : Receipt.seal) =
  let _, get, set = List.find (fun (n, _, _) -> n = name) columns in
  set s (f (get s))

let with_leaves f (c : Receipt.column) =
  let leaves = Array.copy c.Receipt.leaves in
  { c with Receipt.leaves = f leaves }

let flip_first_byte b =
  let b = Bytes.copy b in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
  b

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x;
  a

let set_helper pick (c : Receipt.column) =
  let helpers = Bytes.copy c.Receipt.helpers in
  let at = pick (Bytes.length helpers / 32) in
  Bytes.blit (D32.unsafe_to_bytes (D32.hash_string "tamper")) 0 helpers (32 * at) 32;
  { c with Receipt.helpers }

let column_tampers =
  [
    ( "leaf byte",
      with_leaves (fun l ->
          l.(0) <- flip_first_byte l.(0);
          l) );
    ("first helper", set_helper (fun _ -> 0));
    ("middle helper", set_helper (fun h -> h / 2));
    ("last helper", set_helper (fun h -> h - 1));
    ( "one helper short",
      fun c ->
        let h = c.Receipt.helpers in
        { c with Receipt.helpers = Bytes.sub h 0 (Bytes.length h - 32) } );
    ( "one helper long",
      fun c -> { c with Receipt.helpers = Bytes.cat c.Receipt.helpers (Bytes.make 32 '\000') } );
    ("two leaves swapped", with_leaves (fun l -> swap l 0 1));
    ("one leaf too few", with_leaves (fun l -> Array.sub l 0 (Array.length l - 1)));
    ("one leaf too many", with_leaves (fun l -> Array.append l [| l.(Array.length l - 1) |]));
  ]

(* The leaves at the ranks [rank i] and [rank j] of one column,
   swapped or the second set to the first. A rows index sits at its
   rank in the rows set; an access-log entry in the leaf at
   [leaf_rank]. *)
let swap_at rank i j = with_leaves (fun l -> swap l (rank i) (rank j))

let repeat_at rank i j =
  with_leaves (fun l ->
      l.(rank j) <- l.(rank i);
      l)

let leaf_rank entries j = Fs.rank (Logleaf.leaf_set entries) (Logleaf.leaf_of j)

(* The first index of [idx] and the next one whose entry lies in
   another leaf of the column. *)
let apart entries idx =
  let rank = leaf_rank entries in
  let rec go k = if rank idx.(k) <> rank idx.(0) then (idx.(0), idx.(k)) else go (k + 1) in
  go 1

let last_z_leaf_byte (s : Receipt.seal) =
  on_column "z"
    (with_leaves (fun l ->
         let n = Array.length l in
         l.(n - 1) <- flip_first_byte l.(n - 1);
         l))
    s

let seal_tampers =
  List.concat_map
    (fun (where, _, _) ->
      List.map
        (fun (what, f) -> (where ^ " " ^ what, fun (r : Receipt.t) -> on_column where f r.Receipt.seal))
        column_tampers)
    columns
  @ [
      ( "steps swapped",
        fun r ->
          let c, o = opened_of r in
          let steps = c.Fs.step_idx in
          on_column "rows" (swap_at (Fs.rank o.Fs.rows) steps.(0) steps.(1)) r.Receipt.seal );
      ( "sorted swapped",
        fun r ->
          let c, o = opened_of r in
          let i, j = apart o.Fs.sorted c.Fs.sorted_idx in
          on_column "sorted" (swap_at (leaf_rank o.Fs.sorted) i j) r.Receipt.seal );
      ( "step repeated",
        fun r ->
          let c, o = opened_of r in
          let steps = c.Fs.step_idx in
          on_column "rows" (repeat_at (Fs.rank o.Fs.rows) steps.(0) steps.(1)) r.Receipt.seal );
      ( "steps swapped, last z leaf byte",
        fun r ->
          let c, o = opened_of r in
          let steps = c.Fs.step_idx in
          last_z_leaf_byte
            (on_column "rows" (swap_at (Fs.rank o.Fs.rows) steps.(0) steps.(1)) r.Receipt.seal) );
      ( "z repeated",
        fun r ->
          let c, o = opened_of r in
          let i, j = apart o.Fs.z c.Fs.zt_idx in
          on_column "z" (repeat_at (leaf_rank o.Fs.z) i j) r.Receipt.seal );
    ]

let verdicts () =
  List.concat_map
    (fun (name, program, (receipt : Receipt.t)) ->
      let verdict r =
        match Verify.verify ~program r with Ok () -> "ok" | Error e -> e
      in
      (name ^ " untampered", verdict receipt)
      :: List.map
           (fun (what, f) ->
             (name ^ " " ^ what, verdict { receipt with Receipt.seal = f receipt }))
           seal_tampers)
    (Lazy.force seed_receipts)

let golden_verdicts =
  [
    ("agg untampered", "ok");
    ("agg rows leaf byte", "rows: multiproof does not reach the root");
    ("agg rows first helper", "rows: multiproof does not reach the root");
    ("agg rows middle helper", "rows: multiproof does not reach the root");
    ("agg rows last helper", "rows: multiproof does not reach the root");
    ("agg rows one helper short", "rows: 70 helpers where the challenges need 71");
    ("agg rows one helper long", "rows: 72 helpers where the challenges need 71");
    ("agg rows two leaves swapped", "time: 23 leaves where the challenges open 21");
    ("agg rows one leaf too few", "rows: 17 leaves where the challenges open 18");
    ("agg rows one leaf too many", "rows: 19 leaves where the challenges open 18");
    ("agg sorted leaf byte", "sorted: multiproof does not reach the root");
    ("agg sorted first helper", "sorted: multiproof does not reach the root");
    ("agg sorted middle helper", "sorted: multiproof does not reach the root");
    ("agg sorted last helper", "sorted: multiproof does not reach the root");
    ("agg sorted one helper short", "sorted: 91 helpers where the challenges need 92");
    ("agg sorted one helper long", "sorted: 93 helpers where the challenges need 92");
    ("agg sorted two leaves swapped", "sorted: multiproof does not reach the root");
    ("agg sorted one leaf too few", "sorted: 17 leaves where the challenges open 18");
    ("agg sorted one leaf too many", "sorted: 19 leaves where the challenges open 18");
    ("agg z leaf byte", "z: multiproof does not reach the root");
    ("agg z first helper", "z: multiproof does not reach the root");
    ("agg z middle helper", "z: multiproof does not reach the root");
    ("agg z last helper", "z: multiproof does not reach the root");
    ("agg z one helper short", "z: 93 helpers where the challenges need 94");
    ("agg z one helper long", "z: 95 helpers where the challenges need 94");
    ("agg z two leaves swapped", "z: multiproof does not reach the root");
    ("agg z one leaf too few", "z: 22 leaves where the challenges open 23");
    ("agg z one leaf too many", "z: 24 leaves where the challenges open 23");
    ("agg steps swapped", "rows: multiproof does not reach the root");
    ("agg sorted swapped", "sorted: multiproof does not reach the root");
    ("agg step repeated", "time: 23 leaves where the challenges open 22");
    ("agg steps swapped, last z leaf byte", "rows: multiproof does not reach the root");
    ("agg z repeated", "z: multiproof does not reach the root");
    ("query untampered", "ok");
    ("query rows leaf byte", "rows: multiproof does not reach the root");
    ("query rows first helper", "rows: multiproof does not reach the root");
    ("query rows middle helper", "rows: multiproof does not reach the root");
    ("query rows last helper", "rows: multiproof does not reach the root");
    ("query rows one helper short", "rows: 70 helpers where the challenges need 71");
    ("query rows one helper long", "rows: 72 helpers where the challenges need 71");
    ("query rows two leaves swapped", "time: 23 leaves where the challenges open 19");
    ("query rows one leaf too few", "rows: 17 leaves where the challenges open 18");
    ("query rows one leaf too many", "rows: 19 leaves where the challenges open 18");
    ("query sorted leaf byte", "sorted: multiproof does not reach the root");
    ("query sorted first helper", "sorted: multiproof does not reach the root");
    ("query sorted middle helper", "sorted: multiproof does not reach the root");
    ("query sorted last helper", "sorted: multiproof does not reach the root");
    ("query sorted one helper short", "sorted: 80 helpers where the challenges need 81");
    ("query sorted one helper long", "sorted: 82 helpers where the challenges need 81");
    ("query sorted two leaves swapped", "sorted: multiproof does not reach the root");
    ("query sorted one leaf too few", "sorted: 17 leaves where the challenges open 18");
    ("query sorted one leaf too many", "sorted: 19 leaves where the challenges open 18");
    ("query z leaf byte", "z: multiproof does not reach the root");
    ("query z first helper", "z: multiproof does not reach the root");
    ("query z middle helper", "z: multiproof does not reach the root");
    ("query z last helper", "z: multiproof does not reach the root");
    ("query z one helper short", "z: 84 helpers where the challenges need 85");
    ("query z one helper long", "z: 86 helpers where the challenges need 85");
    ("query z two leaves swapped", "z: multiproof does not reach the root");
    ("query z one leaf too few", "z: 19 leaves where the challenges open 20");
    ("query z one leaf too many", "z: 21 leaves where the challenges open 20");
    ("query steps swapped", "rows: multiproof does not reach the root");
    ("query sorted swapped", "sorted: multiproof does not reach the root");
    ("query step repeated", "time: 23 leaves where the challenges open 22");
    ("query steps swapped, last z leaf byte", "rows: multiproof does not reach the root");
    ("query z repeated", "z: multiproof does not reach the root");
  ]

(* ---- what one verify allocates ----

   The minor words one [Verify.verify] of the seed aggregation receipt
   allocates are a function of the build. They were 38,279 when the
   journal digest ran twice at about 0.7 KB per journal word and the
   checks copied and re-decoded opened leaves, and 8,749 once neither
   did. The bound sits about 3% above the second figure, so copying
   the opened leaves into a column (about 450 words here) or the old
   per-word journal digest coming back fails it. *)

let verify_minor_words () =
  let agg, _, _ = seed_pair () in
  let program = Lazy.force Core.Guests.aggregation_program in
  ignore (Verify.verify ~program agg);
  let before = Gc.minor_words () in
  let verdict = Verify.verify ~program agg in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (result unit string)) "seed receipt verifies" (Ok ()) verdict;
  words

let test_verify_allocation_bound () =
  let words = verify_minor_words () in
  check_bool (Printf.sprintf "%.0f minor words, bound 9000" words) true (words <= 9000.)

(* ---- what recording a trace allocates ----

   The machine records a trace as int columns, appending in place:
   per row and per access it allocates nothing, so a traced run of
   the aggregation guest allocates about what the untraced run does
   (its chunks are born in the major heap). When it recorded one
   record per row and per access it allocated 97,039 minor words over
   the 2,737 cycles of the round below against 28,397 untraced, 25.1
   words per cycle more; the bound is 4. The round is the perfbench
   ingest-steady shape: a 16-flow CLog updated by two records from
   each of 4 routers. *)

let ingest_shape_input () =
  let module Core = Zkflow_core in
  let module Gen = Zkflow_netflow.Gen in
  let module Rng = Zkflow_util.Rng in
  let rng = Rng.create 5L in
  let pop = Gen.flows rng { Gen.default_profile with flow_count = 16 } in
  let record ~router_id key =
    let packets = 1 + Rng.int rng 1000 in
    Zkflow_netflow.Record.make ~key ~first_ts:1000 ~last_ts:(1001 + Rng.int rng 900)
      ~router_id
      {
        Zkflow_netflow.Record.packets;
        bytes = packets * (64 + Rng.int rng 1400);
        hop_count = 1 + Rng.int rng 8;
        losses = Rng.int rng (1 + (packets / 100));
      }
  in
  let window router_id flows =
    let rs = Array.of_list (List.map (fun i -> record ~router_id pop.(i)) flows) in
    (Zkflow_netflow.Export.batch_hash rs, rs)
  in
  let first =
    List.init 4 (fun r -> window r (List.filter (fun i -> i mod 4 = r) (List.init 16 Fun.id)))
  in
  let prev =
    (Result.get_ok (Core.Aggregate.prove_round ~prev:Core.Clog.empty first)).Core.Aggregate.clog
  in
  let second = List.init 4 (fun r -> window r [ Rng.int rng 16; Rng.int rng 16 ]) in
  Core.Guests.aggregation_input ~prev ~batches:second

let test_record_allocation_bound () =
  let program = Lazy.force Zkflow_core.Guests.aggregation_program in
  let input = ingest_shape_input () in
  let words trace =
    ignore (Machine.run ~trace program ~input);
    let before = Gc.minor_words () in
    let run = Machine.run ~trace program ~input in
    (Gc.minor_words () -. before, run)
  in
  let untraced, _ = words false and traced, run = words true in
  check_int "the ingest round's cycles" 2737 run.Machine.cycles;
  let per_cycle = (traced -. untraced) /. float_of_int run.Machine.cycles in
  check_bool
    (Printf.sprintf "%.0f minor words traced, %.0f untraced: %.2f per cycle more, bound 4"
       traced untraced per_cycle)
    true (per_cycle <= 4.)

let test_golden_verdicts () =
  Alcotest.(check (list (pair string string))) "verdicts" golden_verdicts (verdicts ())

(* ---- claim words stay in 32 bits ----

   The journal digest and the claim digest hash each word's low 32
   bits, so a word raised by 2^32 would verify as the honest one, and
   a query answer would grow by 2^32. The forged word rides through
   the wire encoding, as it would in a stored receipt. *)

let with_word ~index ~delta (r : Receipt.t) =
  let journal = Array.copy r.Receipt.claim.Receipt.journal in
  journal.(index) <- journal.(index) + delta;
  { r with Receipt.claim = { r.Receipt.claim with Receipt.journal } }

let test_claim_range_rejected () =
  let _, program, query = seed_pair () in
  let forged =
    let r = with_word ~index:18 ~delta:(1 lsl 32) query in
    match Receipt.decode (Receipt.encode r) with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (result unit string))
    "verify" (Error "claim: journal word 18 out of 32-bit range")
    (Verify.verify ~program forged);
  let expected_root =
    match Core.Guests.parse_query_journal query.Receipt.claim.Receipt.journal with
    | Ok j -> j.Core.Guests.root
    | Error e -> Alcotest.fail e
  in
  let client r = Result.is_ok (Core.Verifier_client.verify_query ~expected_root r) in
  check_bool "client accepts the honest receipt" true (client query);
  check_bool "client rejects the forged receipt" false (client forged);
  (match Wrap.wrap vkey ~program query with
  | Error e -> Alcotest.fail e
  | Ok w ->
    check_bool "honest wrap" true (Wrap.verify vkey w);
    let journal = Array.copy w.Wrap.journal in
    journal.(18) <- journal.(18) + (1 lsl 32);
    check_bool "forged wrap" false (Wrap.verify vkey { w with Wrap.journal }));
  let claim = query.Receipt.claim in
  List.iter
    (fun (what, claim, expected) ->
      Alcotest.(check (result unit string)) what expected (Receipt.check_claim claim))
    [
      ("honest", claim, Ok ());
      ( "exit code 2^32",
        { claim with Receipt.exit_code = 1 lsl 32 },
        Error "claim: exit code out of 32-bit range" );
      ( "negative exit code",
        { claim with Receipt.exit_code = -1 },
        Error "claim: exit code out of 32-bit range" );
      ( "negative word",
        (with_word ~index:0 ~delta:(-1 - claim.Receipt.journal.(0)) query).Receipt.claim,
        Error "claim: journal word 0 out of 32-bit range" );
      ( "top word",
        (with_word ~index:19 ~delta:(0xffffffff - claim.Receipt.journal.(19)) query)
          .Receipt.claim,
        Ok () );
    ]

(* ---- seal version ---- *)

(* The encoding before the seal tag began with the image id: a
   receipt without the tag, or with another version's, is refused by
   name before any field is read. *)
let test_seal_version_named () =
  let agg, _, _ = seed_pair () in
  let enc = Receipt.encode agg in
  let tag = 1 + String.length Receipt.seal_tag in
  let unsupported = Error "receipt: unsupported seal version" in
  let decode b = Result.map (fun _ -> ()) (Receipt.decode b) in
  Alcotest.(check (result unit string)) "current" (Ok ()) (decode enc);
  Alcotest.(check (result unit string)) "untagged (previous layout)" unsupported
    (decode (Bytes.sub enc tag (Bytes.length enc - tag)));
  List.iter
    (fun v ->
      let other = Bytes.copy enc in
      Bytes.set other (tag - 1) v;
      Alcotest.(check (result unit string))
        (Printf.sprintf "version %c" v)
        unsupported (decode other))
    [ '1'; '2'; '3'; '4' ];
  Alcotest.(check (result unit string)) "empty" unsupported (decode Bytes.empty)

(* ---- decode bounds ----

   A column whose helper blob holds more than 64 digests per leaf, or
   whose leaf table is longer than the query count allows, is refused
   by the decoder before it is allocated, and nothing is hashed. *)

let test_decode_bounds_columns () =
  let agg, _, _ = seed_pair () in
  let s = agg.Receipt.seal in
  let rows = s.Receipt.rows in
  let n = Array.length rows.Receipt.leaves in
  let decode_with rows =
    let enc = Receipt.encode { agg with Receipt.seal = { s with Receipt.rows } } in
    let compressions = Zkflow_obs.Metric.counter "sha256.compressions" in
    Zkflow_obs.Obs.with_enabled (fun () ->
        let c0 = Zkflow_obs.Metric.value compressions in
        let r = Result.map (fun _ -> ()) (Receipt.decode enc) in
        (r, Zkflow_obs.Metric.value compressions - c0))
  in
  let over = (64 * n) + 1 in
  let r, hashed = decode_with { rows with Receipt.helpers = Bytes.make (32 * over) '\000' } in
  Alcotest.(check (result unit string))
    "helpers above 64 per leaf"
    (Error (Printf.sprintf "rows: %d helpers for %d leaves" over n))
    r;
  check_int "no compressions" 0 hashed;
  let r, hashed =
    decode_with { rows with Receipt.helpers = Bytes.make 33 '\000' }
  in
  Alcotest.(check (result unit string))
    "helpers not whole digests" (Error "rows: helpers are not whole digests") r;
  check_int "no compressions" 0 hashed;
  let too_many = Receipt.max_leaves ~queries:8 + 1 in
  let r, hashed =
    decode_with
      { rows with Receipt.leaves = Array.make too_many (Bytes.make 1 'x') }
  in
  Alcotest.(check (result unit string))
    "leaves above the query bound"
    (Error (Printf.sprintf "rows: %d leaves for 8 queries" too_many))
    r;
  check_int "no compressions" 0 hashed

(* ---- flows readout ----

   The readout's multiproof climbs as the seal's does, under the CLog
   rule. On the seed CLog it answers the rows, totals and helper counts
   it answered before the seal moved to multiproofs. *)

let golden_flows =
  [
    ([ 0 ], [ (0, 857176) ], 4);
    ([ 0; 3; 5 ], [ (0, 857176); (3, 4808896); (5, 4231651) ], 5);
    ([ 7; 2 ], [ (2, 1816628); (7, 1707844) ], 5);
    ( List.init 12 Fun.id,
      [
        (0, 857176); (1, 9397798); (2, 1816628); (3, 4808896); (4, 6044472);
        (5, 4231651); (6, 223097); (7, 1707844); (8, 4782546); (9, 631719);
        (10, 679679); (11, 5388565);
      ],
      1 );
  ]

let test_flows_readout () =
  let clog = (Lazy.force seed_round).Core.Aggregate.clog in
  let entries = Core.Clog.entries clog in
  List.iter
    (fun (picks, want, helpers) ->
      let what = String.concat "," (List.map string_of_int picks) in
      let keys = List.map (fun i -> entries.(i).Core.Clog.key) picks in
      match Core.Query.prove_flows ~clog ~metric:Core.Guests.Bytes keys with
      | Error e -> Alcotest.fail e
      | Ok fr -> (
        check_int (what ^ " helpers") helpers
          (Bytes.length fr.Core.Query.proof.Zkflow_merkle.Multiproof.helpers / 32);
        match Core.Verifier_client.verify_flows ~expected_root:(Core.Clog.root clog) fr with
        | Error e -> Alcotest.fail e
        | Ok rows ->
          Alcotest.(check (list (pair int int)))
            (what ^ " rows") want
            (List.map (fun r -> (r.Core.Query.index, r.Core.Query.value)) rows)))
    golden_flows

(* ---- single-bit flips of a golden receipt encoding ----

   A fixed sample of the single-bit flips of the seed aggregation
   receipt's encoding. Each must fail to decode or fail to verify, and
   none may raise. A full sweep of every bit found one class of
   survivors: value bits 32-34 of the five-byte journal varints, which
   the hashes mask away and the claim check now rejects. The sample
   holds all of those, every bit of the seal tag, of the exit code, of
   the first and last journal words and of the two boundary z leaves,
   and a fixed stride across the seal. *)

let flip_sample (r : Receipt.t) enc =
  let size = Zkflow_util.Varint.size in
  let claim = r.Receipt.claim in
  let journal = claim.Receipt.journal in
  let n = Array.length journal in
  let tag = 1 + String.length Receipt.seal_tag in
  let exit_at = tag + 1 + 32 in
  let word_at = Array.make (n + 1) (exit_at + size claim.Receipt.exit_code + size n) in
  for i = 0 to n - 1 do
    word_at.(i + 1) <- word_at.(i) + size journal.(i)
  done;
  let seal_at = word_at.(n) in
  let bits lo hi = List.init (8 * (hi - lo)) (fun k -> (8 * lo) + k) in
  let high_bits =
    List.concat
      (List.init n (fun i ->
           if size journal.(i) = 5 then
             List.map (fun b -> (8 * (word_at.(i) + 4)) + b) [ 4; 5; 6 ]
           else []))
  in
  (* a boundary z leaf, by its length-prefixed bytes; the z column is
     the last, so search from the end *)
  let z_leaf leaf =
    let prefix = Buffer.create 2 in
    Zkflow_util.Varint.write prefix (Bytes.length leaf);
    let needle = Bytes.cat (Buffer.to_bytes prefix) leaf in
    let n = Bytes.length needle in
    let rec back i =
      if i < 0 then Alcotest.fail "z leaf not found"
      else if Zkflow_util.Bytesx.equal_sub enc i needle 0 n then i + n - Bytes.length leaf
      else back (i - 1)
    in
    let at = back (Bytes.length enc - n) in
    bits at (at + Bytes.length leaf)
  in
  let z = r.Receipt.seal.Receipt.z.Receipt.leaves in
  let stride =
    List.init (((8 * (Bytes.length enc - seal_at)) + 498) / 499) (fun k ->
        (8 * seal_at) + (499 * k))
  in
  ( high_bits,
    bits 0 tag,
    List.concat
      [
        bits exit_at (exit_at + size claim.Receipt.exit_code);
        bits word_at.(0) word_at.(1);
        bits word_at.(n - 1) word_at.(n);
        z_leaf z.(0);
        z_leaf z.(Array.length z - 1);
        stride;
      ] )

let flip pos enc =
  let b = Bytes.copy enc in
  let at = pos / 8 in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl (pos mod 8))));
  b

let flip_outcome ~program enc pos =
  match
    match Receipt.decode (flip pos enc) with
    | Error e -> Error ("decode", e)
    | Ok r -> (
      match Verify.verify ~program r with Ok () -> Ok () | Error e -> Error ("verify", e))
  with
  | outcome -> outcome
  | exception exn -> Error ("raised", Printexc.to_string exn)

(* The flips of [flip_sample] that [program] accepts or that raise,
   one line each. *)
let surviving_flips ~program (r : Receipt.t) =
  let enc = Receipt.encode r in
  let high_bits, tag_bits, rest = flip_sample r enc in
  let bad = ref [] in
  let note pos what =
    bad := Printf.sprintf "byte %d bit %d: %s" (pos / 8) (pos mod 8) what :: !bad
  in
  List.iter
    (fun pos ->
      match flip_outcome ~program enc pos with
      | Ok () -> note pos "accepted"
      | Error ("raised", e) -> note pos ("raised " ^ e)
      | Error _ -> ())
    (high_bits @ rest);
  List.iter
    (fun pos ->
      match flip_outcome ~program enc pos with
      | Error ("decode", "receipt: unsupported seal version") -> ()
      | Ok () -> note pos "accepted"
      | Error (_, e) -> note pos e)
    tag_bits;
  (List.length high_bits, List.rev !bad)

let test_bit_flips_rejected () =
  let agg, _, _ = seed_pair () in
  let program = Lazy.force Core.Guests.aggregation_program in
  let high_bits, bad = surviving_flips ~program agg in
  Alcotest.(check int) "five-byte journal varints, three bits each" 354 high_bits;
  Alcotest.(check (list string)) "every flip rejected, none raised" [] bad

(* The same sample over the seed query receipt, against the query
   program; then every bit of that receipt's wrap encoding, through
   [Wrap.decode] and [Wrap.verify]. *)
let test_query_and_wrap_flips_rejected () =
  let _, program, query = seed_pair () in
  let high_bits, bad = surviving_flips ~program query in
  check_bool "the sample holds five-byte journal varints" true (high_bits > 0);
  Alcotest.(check (list string)) "query: every flip rejected, none raised" [] bad;
  let enc =
    match Wrap.wrap vkey ~program query with
    | Ok w -> Wrap.encode w
    | Error e -> Alcotest.fail e
  in
  let accepted pos =
    match Wrap.decode (flip pos enc) with Error _ -> false | Ok w -> Wrap.verify vkey w
  in
  let bad = ref [] in
  for pos = (8 * Bytes.length enc) - 1 downto 0 do
    let note what = bad := Printf.sprintf "byte %d bit %d: %s" (pos / 8) (pos mod 8) what :: !bad in
    match accepted pos with
    | false -> ()
    | true -> note "accepted"
    | exception exn -> note ("raised " ^ Printexc.to_string exn)
  done;
  Alcotest.(check (list string)) "wrap: every flip rejected, none raised" [] !bad

let () =
  Alcotest.run "zkflow_zkproof"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "prove/verify" `Quick test_prove_verify_roundtrip;
          Alcotest.test_case "minimal guest" `Quick test_minimal_guest_proves;
          Alcotest.test_case "sha-heavy guest" `Quick test_sha_only_guest_proves;
          Alcotest.test_case "params respected" `Quick test_params_respected;
          Alcotest.test_case "fewer queries, smaller seal" `Quick test_seal_smaller_with_fewer_queries;
          Alcotest.test_case "re-prove bit-identical" `Quick test_reprove_identical;
          Alcotest.test_case "packed leaves: small logs" `Quick test_packed_small_logs;
          QCheck_alcotest.to_alcotest prop_packed_round_trip;
          Alcotest.test_case "verify allocates a bounded amount" `Quick
            test_verify_allocation_bound;
          Alcotest.test_case "recording allocates a bounded amount" `Quick
            test_record_allocation_bound;
          Alcotest.test_case "golden image ids" `Quick test_golden_image_ids;
          Alcotest.test_case "golden aggregation receipt" `Quick test_golden_aggregation_receipt;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "wrong program" `Quick test_verify_rejects_wrong_program;
          Alcotest.test_case "tampered journal" `Quick test_verify_rejects_tampered_journal;
          Alcotest.test_case "tampered exit code" `Quick test_verify_rejects_tampered_exit_code;
          Alcotest.test_case "tampered root" `Quick test_verify_rejects_tampered_root;
          Alcotest.test_case "tampered opening" `Quick test_verify_rejects_tampered_opening;
          Alcotest.test_case "truncated checks" `Quick test_verify_rejects_truncated_checks;
          Alcotest.test_case "forged block rows" `Quick test_forged_block_rows;
          Alcotest.test_case "forged packed leaves" `Quick test_forged_packed_leaves;
        ] );
      ( "prover-guards",
        [
          Alcotest.test_case "nonzero exit refused" `Quick test_prove_rejects_nonzero_exit;
          Alcotest.test_case "trap refused" `Quick test_prove_rejects_trap;
          Alcotest.test_case "untraced run refused" `Quick test_prove_rejects_untraced_run;
          Alcotest.test_case "disordered access log refused" `Quick
            test_prove_rejects_disordered_log;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "receipt roundtrip" `Quick test_receipt_encode_decode;
          Alcotest.test_case "garbage rejected" `Quick test_receipt_decode_garbage;
          Alcotest.test_case "journal size" `Quick test_journal_size;
          Alcotest.test_case "seal version named" `Quick test_seal_version_named;
          Alcotest.test_case "decode bounds columns" `Quick test_decode_bounds_columns;
        ] );
      ( "wrap",
        [
          Alcotest.test_case "roundtrip" `Quick test_wrap_roundtrip;
          Alcotest.test_case "bad inner refused" `Quick test_wrap_rejects_bad_inner;
          Alcotest.test_case "tampering rejected" `Quick test_wrap_rejects_tampering;
          Alcotest.test_case "encode/decode" `Quick test_wrap_encode_decode;
        ] );
      ( "params",
        [
          Alcotest.test_case "soundness_bits formula" `Quick
            test_soundness_bits_formula;
          Alcotest.test_case "soundness_bits monotone" `Quick
            test_soundness_bits_monotone;
          Alcotest.test_case "bad_fraction domain" `Quick
            test_soundness_bits_rejects_bad_fraction;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "seal sublinear in trace" `Quick test_receipt_grows_sublinearly;
        ] );
      ( "memcheck",
        [
          Alcotest.test_case "sort order" `Quick test_memcheck_sort_order;
          Alcotest.test_case "sort_with_perm" `Quick test_sort_with_perm_consistent;
          Alcotest.test_case "adjacency rules" `Quick test_memcheck_adjacent_rules;
          Alcotest.test_case "grand products" `Quick test_memcheck_products_multiset;
          Alcotest.test_case "aliased write refused" `Quick test_memcheck_aliased_write_refused;
          Alcotest.test_case "entry domain" `Quick test_memcheck_entry_domain;
          Alcotest.test_case "aliased time in a receipt" `Quick test_verify_refuses_aliased_time;
          QCheck_alcotest.to_alcotest prop_sort_perm_is_comparator_order;
          QCheck_alcotest.to_alcotest prop_z_leaves_match_term_fold;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "golden tamper verdicts" `Quick test_golden_verdicts;
          Alcotest.test_case "claim words in 32 bits" `Quick test_claim_range_rejected;
          Alcotest.test_case "flows readout" `Quick test_flows_readout;
          Alcotest.test_case "single-bit flips rejected" `Quick test_bit_flips_rejected;
          Alcotest.test_case "query and wrap flips rejected" `Quick
            test_query_and_wrap_flips_rejected;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "receipt mutations" `Slow test_receipt_mutation_fuzz ] );
    ]
