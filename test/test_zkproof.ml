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

let test_commit_cache_reprove_identical () =
  (* Re-proving the same traced run must hit the phase-1 commitment
     cache and still produce a byte-identical receipt; a different run
     must miss. *)
  Prove.clear_commit_cache ();
  let run =
    Machine.run ~trace:true demo_guest ~input:demo_input
  in
  let c_hits = Zkflow_obs.Metric.counter "zkproof.commit_cache.hits" in
  let c_misses = Zkflow_obs.Metric.counter "zkproof.commit_cache.misses" in
  Zkflow_obs.Obs.reset ();
  Zkflow_obs.Obs.enable ();
  Fun.protect ~finally:Zkflow_obs.Obs.disable (fun () ->
      let r1 = Result.get_ok (Prove.prove_result demo_guest run) in
      let r2 = Result.get_ok (Prove.prove_result demo_guest run) in
      check_bool "identical receipts" true
        (Receipt.encode r1 = Receipt.encode r2);
      check_int "one miss" 1 (Zkflow_obs.Metric.value c_misses);
      check_int "one hit" 1 (Zkflow_obs.Metric.value c_hits);
      (* different params still hit (phase 1 is parameter-independent)
         and the receipt still verifies *)
      let r3 =
        Result.get_ok
          (Prove.prove_result ~params:(Params.make ~queries:8) demo_guest run)
      in
      check_int "params change still hits" 2 (Zkflow_obs.Metric.value c_hits);
      check_bool "cached-commit receipt verifies" true
        (Verify.check ~program:demo_guest r3);
      (* a recomputed (physically distinct) run misses *)
      let run' = Machine.run ~trace:true demo_guest ~input:demo_input in
      let r4 = Result.get_ok (Prove.prove_result demo_guest run') in
      check_int "fresh arrays miss" 2 (Zkflow_obs.Metric.value c_misses);
      check_bool "same receipt bytes" true (Receipt.encode r1 = Receipt.encode r4));
  Prove.clear_commit_cache ()

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
  let steps = Array.copy seal.Receipt.steps in
  let s0 = steps.(0) in
  let leaf = Bytes.copy s0.Receipt.row.Receipt.leaf in
  Bytes.set leaf 0 (Char.chr (Char.code (Bytes.get leaf 0) lxor 1));
  steps.(0) <-
    { s0 with Receipt.row = { s0.Receipt.row with Receipt.leaf = leaf } };
  let tampered = { receipt with Receipt.seal = { seal with Receipt.steps = steps } } in
  check_bool "tampered leaf" false (Verify.check ~program:demo_guest tampered)

let test_verify_rejects_truncated_checks () =
  let receipt, _ = prove_demo () in
  let seal = receipt.Receipt.seal in
  let tampered =
    { receipt with Receipt.seal = { seal with Receipt.steps = [||] } }
  in
  check_bool "no steps" false (Verify.check ~program:demo_guest tampered)

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
  let log = run.Machine.memlog in
  let refused what memlog =
    match Prove.prove_result demo_guest { run with Machine.memlog } with
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

let test_params_respected () =
  let params = Params.make ~queries:8 in
  match Prove.prove ~params demo_guest ~input:demo_input with
  | Error e -> Alcotest.fail e
  | Ok (receipt, _) ->
    check_int "step checks" 8 (Array.length receipt.Receipt.seal.Receipt.steps);
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
     far less than 16× the seal. *)
  let size n =
    let guest, input = hashing_guest n in
    match Prove.prove guest ~input with
    | Ok (r, _) -> (Receipt.seal_size r, r.Receipt.seal.Receipt.n_rows)
    | Error e -> Alcotest.fail e
  in
  let s1, n1 = size 32 in
  let s2, n2 = size 512 in
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
  match Memcheck.sort_perm log with
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
    (Result.is_error (Memcheck.sort_perm [| log.(2); log.(3); log.(1); log.(0) |]))

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
       | Ok (run : Machine.result) -> run.Machine.memlog
       | Error e -> Alcotest.fail e
     in
     [
       ("demo", (Machine.run ~trace:true demo_guest ~input:demo_input).Machine.memlog);
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

let final_products leaves =
  match Memcheck.decode_z leaves.(Array.length leaves - 1) with
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
  let zt, zs = final_products (Memcheck.z_leaves ~alpha ~beta log perm) in
  check_bool "final products equal (permutation)" true (Fp2.equal zt zs);
  (* one entry counted twice and another dropped breaks equality *)
  let forged = Array.copy perm in
  forged.(7) <- forged.(8);
  let zt', zs' = final_products (Memcheck.z_leaves ~alpha ~beta log forged) in
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
    (fun log -> Memcheck.sort_perm log = Ok (comparator_perm log))

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
      let leaves = Memcheck.z_leaves ~alpha ~beta log perm in
      Array.for_all2 Bytes.equal (reference_z_leaves ~alpha ~beta log perm) leaves)

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
    (Trace.decode_mem (Trace.encode_mem alias) = Ok alias);
  check_bool "alias refused" false (ok (Memcheck.check_time ~n_rows:5 alias));
  check_bool "honest write accepted" true (ok (Memcheck.check_time ~n_rows:5 time_log.(1)))

(* Each coordinate just outside the domain the verifier enforces is
   refused, and each one on its edge is accepted. *)
let test_memcheck_entry_domain () =
  let w = entry ~addr:0 ~time:0 ~write:true ~value:0 in
  let decodes e = Result.is_ok (Trace.decode_mem (Trace.encode_mem e)) in
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
  let memlog = Array.copy run.Machine.memlog in
  (* t0 is written once, by the first row, and never read. *)
  check_bool "entry 0 writes t0 at cycle 0" true
    (memlog.(0) = entry ~addr:(Trace.reg_base + 5) ~time:0 ~write:true ~value:1);
  memlog.(0) <- { (memlog.(0)) with Trace.time = Zkflow_field.Babybear.p };
  match Prove.prove_result guest { run with Machine.memlog } with
  | Error e -> Alcotest.fail e
  | Ok receipt ->
    Alcotest.(check (result unit string))
      "verdict"
      (Error
         (Printf.sprintf
            "step.mem: memcheck: access time %d outside the trace (n_rows %d)"
            Zkflow_field.Babybear.p (Array.length run.Machine.rows)))
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
   were rewritten: the guests' image ids and the digest of one
   fixed-seed aggregation receipt. Any change to how the prover hashes
   (leaves, nodes, the jacc chain, the transcript) moves one of them. *)

module Core = Zkflow_core
module Gen = Zkflow_netflow.Gen

let golden_aggregation_image_id = "516d73653681a1d444546cd7308ee225e845de28ddf735919e9460f2985962ae"
let golden_query_image_id = "efe4a18c35efc13a4128d3d9c94d20ca82a761c64391eea55a40cd937a7d5d1c"
let golden_aggregation_receipt_sha256 = "79c53b455d2efafa9c03aef144870cfd0fd6f5f417a78e1013e5e582ed6c35f9"

let test_golden_image_ids () =
  let check_hex what expected d =
    Alcotest.(check string) what expected (Zkflow_hash.Digest32.to_hex d)
  in
  check_hex "aggregation guest" golden_aggregation_image_id
    (Core.Guests.aggregation_image_id ());
  check_hex "query guest" golden_query_image_id (Core.Guests.query_image_id ())

let test_golden_aggregation_receipt () =
  let rng = Zkflow_util.Rng.create 13L in
  let batches =
    List.init 2 (fun router_id ->
        let records = Gen.records rng Gen.default_profile ~router_id ~count:6 in
        (Zkflow_netflow.Export.batch_hash records, records))
  in
  match
    Core.Aggregate.prove_round ~params:(Params.make ~queries:8) ~prev:Core.Clog.empty
      batches
  with
  | Error e -> Alcotest.fail ("prove_round failed: " ^ e)
  | Ok round ->
    Alcotest.(check string) "receipt encoding sha256" golden_aggregation_receipt_sha256
      (Zkflow_util.Hexcodec.encode
         (Zkflow_hash.Sha256.digest (Receipt.encode round.Core.Aggregate.receipt)))

(* ---- golden verdicts ----

   One fixed-seed aggregation receipt and one query receipt over its
   CLog, each tampered in one place, and the exact [Verify.verify]
   result for every case. The strings were recorded before the
   verifier learned to check a root's openings along shared paths, so
   a change to how paths are checked must reach the same first error,
   not only the same accept/reject bit. *)

module D32 = Zkflow_hash.Digest32
module Proof = Zkflow_merkle.Proof

let seed_receipts =
  lazy
    (let rng = Zkflow_util.Rng.create 13L in
     let batches =
       List.init 2 (fun router_id ->
           let records = Gen.records rng Gen.default_profile ~router_id ~count:6 in
           (Zkflow_netflow.Export.batch_hash records, records))
     in
     let params = Params.make ~queries:8 in
     let round =
       match Core.Aggregate.prove_round ~params ~prev:Core.Clog.empty batches with
       | Ok r -> r
       | Error e -> Alcotest.fail ("prove_round failed: " ^ e)
     in
     let query =
       match Core.Query.prove ~params ~clog:round.Core.Aggregate.clog Core.Query.flow_count with
       | Ok q -> q
       | Error e -> Alcotest.fail ("query prove failed: " ^ e)
     in
     [
       ("agg", Lazy.force Core.Guests.aggregation_program, round.Core.Aggregate.receipt);
       ("query", Lazy.force Core.Guests.query_program, query.Core.Query.receipt);
     ])

(* Where a single-opening tamper lands: a lens onto one opening. *)
let on_step_row f (s : Receipt.seal) =
  let steps = Array.copy s.Receipt.steps in
  steps.(0) <- { (steps.(0)) with Receipt.row = f steps.(0).Receipt.row };
  { s with Receipt.steps }

let on_sorted_first f (s : Receipt.seal) =
  let sorteds = Array.copy s.Receipt.sorteds in
  sorteds.(0) <- { (sorteds.(0)) with Receipt.first = f sorteds.(0).Receipt.first };
  { s with Receipt.sorteds }

let on_z_last f (s : Receipt.seal) =
  let b = s.Receipt.boundary in
  { s with Receipt.boundary = { b with Receipt.z_last = f b.Receipt.z_last } }

let with_path (o : Receipt.opening) path = { o with Receipt.path }

let set_sibling pick (o : Receipt.opening) =
  let sib = Array.copy o.Receipt.path.Proof.siblings in
  sib.(pick (Array.length sib)) <- D32.hash_string "tamper";
  with_path o { o.Receipt.path with Proof.siblings = sib }

let opening_tampers =
  [
    ( "leaf byte",
      fun (o : Receipt.opening) ->
        let leaf = Bytes.copy o.Receipt.leaf in
        Bytes.set leaf 0 (Char.chr (Char.code (Bytes.get leaf 0) lxor 1));
        { o with Receipt.leaf } );
    ("bottom sibling", set_sibling (fun _ -> 0));
    ("middle sibling", set_sibling (fun d -> d / 2));
    ("top sibling", set_sibling (fun d -> d - 1));
    ( "path index",
      fun o -> with_path o { o.Receipt.path with Proof.index = o.Receipt.path.Proof.index lxor 1 } );
    ( "both indices",
      fun o ->
        let index = o.Receipt.index lxor 1 in
        { (with_path o { o.Receipt.path with Proof.index }) with Receipt.index } );
    ( "path one short",
      fun o ->
        let sib = o.Receipt.path.Proof.siblings in
        with_path o
          { o.Receipt.path with Proof.siblings = Array.sub sib 0 (Array.length sib - 1) } );
    ( "path one long",
      fun o ->
        with_path o
          {
            o.Receipt.path with
            Proof.siblings = Array.append o.Receipt.path.Proof.siblings [| D32.zero |];
          } );
  ]

let seal_tampers =
  List.concat_map
    (fun (where, lens) ->
      List.map (fun (what, f) -> (where ^ " " ^ what, lens f)) opening_tampers)
    [ ("step.row", on_step_row); ("sorted.first", on_sorted_first); ("bd.z_last", on_z_last) ]
  @ [
      ( "steps swapped",
        fun (s : Receipt.seal) ->
          let steps = Array.copy s.Receipt.steps in
          steps.(0) <- s.Receipt.steps.(1);
          steps.(1) <- s.Receipt.steps.(0);
          { s with Receipt.steps } );
      ( "sorted swapped",
        fun (s : Receipt.seal) ->
          let sorteds = Array.copy s.Receipt.sorteds in
          sorteds.(0) <- s.Receipt.sorteds.(1);
          sorteds.(1) <- s.Receipt.sorteds.(0);
          { s with Receipt.sorteds } );
      ( "step repeated",
        fun (s : Receipt.seal) ->
          let steps = Array.copy s.Receipt.steps in
          steps.(1) <- s.Receipt.steps.(0);
          { s with Receipt.steps } );
      ( "steps swapped, last z leaf byte",
        fun (s : Receipt.seal) ->
          let steps = Array.copy s.Receipt.steps in
          steps.(0) <- s.Receipt.steps.(1);
          steps.(1) <- s.Receipt.steps.(0);
          on_z_last (List.assoc "leaf byte" opening_tampers) { s with Receipt.steps } );
      ( "z repeated",
        fun (s : Receipt.seal) ->
          let zs_time = Array.copy s.Receipt.zs_time in
          zs_time.(1) <- s.Receipt.zs_time.(0);
          { s with Receipt.zs_time } );
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
             ( name ^ " " ^ what,
               verdict { receipt with Receipt.seal = f receipt.Receipt.seal } ))
           seal_tampers)
    (Lazy.force seed_receipts)

let golden_verdicts =
  [
    ("agg untampered", "ok");
    ("agg step.row leaf byte", "step.row: Merkle path does not authenticate");
    ("agg step.row bottom sibling", "step.row: Merkle path does not authenticate");
    ("agg step.row middle sibling", "step.row: Merkle path does not authenticate");
    ("agg step.row top sibling", "step.row: Merkle path does not authenticate");
    ("agg step.row path index", "step.row: index mismatch");
    ("agg step.row both indices", "step.row: Merkle path does not authenticate");
    ("agg step.row path one short", "step.row: Merkle path does not authenticate");
    ("agg step.row path one long", "step.row: Merkle path does not authenticate");
    ("agg sorted.first leaf byte", "sorted.first: Merkle path does not authenticate");
    ("agg sorted.first bottom sibling", "sorted.first: Merkle path does not authenticate");
    ("agg sorted.first middle sibling", "sorted.first: Merkle path does not authenticate");
    ("agg sorted.first top sibling", "sorted.first: Merkle path does not authenticate");
    ("agg sorted.first path index", "sorted.first: index mismatch");
    ("agg sorted.first both indices", "sorted.first: Merkle path does not authenticate");
    ("agg sorted.first path one short", "sorted.first: Merkle path does not authenticate");
    ("agg sorted.first path one long", "sorted.first: Merkle path does not authenticate");
    ("agg bd.z_last leaf byte", "bd.z_last: Merkle path does not authenticate");
    ("agg bd.z_last bottom sibling", "bd.z_last: Merkle path does not authenticate");
    ("agg bd.z_last middle sibling", "bd.z_last: Merkle path does not authenticate");
    ("agg bd.z_last top sibling", "bd.z_last: Merkle path does not authenticate");
    ("agg bd.z_last path index", "bd.z_last: index mismatch");
    ("agg bd.z_last both indices", "bd.z_last: Merkle path does not authenticate");
    ("agg bd.z_last path one short", "bd.z_last: Merkle path does not authenticate");
    ("agg bd.z_last path one long", "bd.z_last: Merkle path does not authenticate");
    ("agg steps swapped", "step: unsampled row index");
    ("agg sorted swapped", "sorted: index");
    ("agg step repeated", "step: unsampled row index");
    ("agg steps swapped, last z leaf byte", "step: unsampled row index");
    ("agg z repeated", "z: index");
    ("query untampered", "ok");
    ("query step.row leaf byte", "step.row: Merkle path does not authenticate");
    ("query step.row bottom sibling", "step.row: Merkle path does not authenticate");
    ("query step.row middle sibling", "step.row: Merkle path does not authenticate");
    ("query step.row top sibling", "step.row: Merkle path does not authenticate");
    ("query step.row path index", "step.row: index mismatch");
    ("query step.row both indices", "step.row: Merkle path does not authenticate");
    ("query step.row path one short", "step.row: Merkle path does not authenticate");
    ("query step.row path one long", "step.row: Merkle path does not authenticate");
    ("query sorted.first leaf byte", "sorted.first: Merkle path does not authenticate");
    ("query sorted.first bottom sibling", "sorted.first: Merkle path does not authenticate");
    ("query sorted.first middle sibling", "sorted.first: Merkle path does not authenticate");
    ("query sorted.first top sibling", "sorted.first: Merkle path does not authenticate");
    ("query sorted.first path index", "sorted.first: index mismatch");
    ("query sorted.first both indices", "sorted.first: Merkle path does not authenticate");
    ("query sorted.first path one short", "sorted.first: Merkle path does not authenticate");
    ("query sorted.first path one long", "sorted.first: Merkle path does not authenticate");
    ("query bd.z_last leaf byte", "bd.z_last: Merkle path does not authenticate");
    ("query bd.z_last bottom sibling", "bd.z_last: Merkle path does not authenticate");
    ("query bd.z_last middle sibling", "bd.z_last: Merkle path does not authenticate");
    ("query bd.z_last top sibling", "bd.z_last: Merkle path does not authenticate");
    ("query bd.z_last path index", "bd.z_last: index mismatch");
    ("query bd.z_last both indices", "bd.z_last: Merkle path does not authenticate");
    ("query bd.z_last path one short", "bd.z_last: Merkle path does not authenticate");
    ("query bd.z_last path one long", "bd.z_last: Merkle path does not authenticate");
    ("query steps swapped", "step: unsampled row index");
    ("query sorted swapped", "sorted: index");
    ("query step repeated", "step: unsampled row index");
    ("query steps swapped, last z leaf byte", "step: unsampled row index");
    ("query z repeated", "z: index");
  ]

let test_golden_verdicts () =
  Alcotest.(check (list (pair string string))) "verdicts" golden_verdicts (verdicts ())

(* ---- claim words stay in 32 bits ----

   The journal digest and the claim digest hash each word's low 32
   bits, so a word raised by 2^32 would verify as the honest one, and
   a query answer would grow by 2^32. The forged word rides through
   the wire encoding, as it would in a stored receipt. *)

(* The seed aggregation receipt, the query program and the seed query
   receipt. *)
let seed_pair () =
  match Lazy.force seed_receipts with
  | [ (_, _, agg); (_, program, query) ] -> (agg, program, query)
  | _ -> assert false

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
  let v1 = Bytes.copy enc in
  Bytes.set v1 (tag - 1) '1';
  Alcotest.(check (result unit string)) "other version" unsupported (decode v1);
  Alcotest.(check (result unit string)) "empty" unsupported (decode Bytes.empty)

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
  (* a boundary z leaf, by its length-prefixed bytes; they end the
     encoding, so search from the end *)
  let z_leaf (o : Receipt.opening) =
    let needle = Bytes.cat (Bytes.make 1 '\016') o.Receipt.leaf in
    let rec back i =
      if i < 0 then Alcotest.fail "z leaf not found"
      else if Zkflow_util.Bytesx.equal_sub enc i needle 0 17 then i + 1
      else back (i - 1)
    in
    let at = back (Bytes.length enc - 17) in
    bits at (at + 16)
  in
  let b = r.Receipt.seal.Receipt.boundary in
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
        z_leaf b.Receipt.z0;
        z_leaf b.Receipt.z_last;
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
          Alcotest.test_case "commit cache re-prove" `Quick test_commit_cache_reprove_identical;
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
          Alcotest.test_case "single-bit flips rejected" `Quick test_bit_flips_rejected;
          Alcotest.test_case "query and wrap flips rejected" `Quick
            test_query_and_wrap_flips_rejected;
        ] );
      ( "fuzz",
        [ Alcotest.test_case "receipt mutations" `Slow test_receipt_mutation_fuzz ] );
    ]
