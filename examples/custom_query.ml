(* Custom verifiable queries with Zirc (paper §4.2: "the system
   supports arbitrary queries over the aggregated dataset").

   The built-in query guest covers filter + SUM/COUNT/MAX/MIN. Here an
   auditor needs something it can't express: "how many flows exceed a
   1% loss rate, and what is the worst flow's loss in permille?" —
   a ratio predicate plus a derived maximum. We write it in Zirc, a
   small imperative language that compiles to the zkVM, and get the
   whole receipt machinery for free.

   Run: dune exec examples/custom_query.exe *)

module Record = Zkflow_netflow.Record
module Gen = Zkflow_netflow.Gen
open Zkflow_core
open Zkflow_lang

(* Memory map for the guest (word addresses). [Read_entries] lays
   entry i at [entries_at + i * Zirc.entry_stride], after the words its
   leaf hash writes its domain tag to. *)
let root_at = 0x200
let entries_at = 0x100003
let leaves_at = 0x200000

let audit_query : Zirc.program =
  Zirc.
    [
      (* input: m, claimed CLog root, m 8-word entries *)
      Let ("m", Read_word);
      Read_words { dst = Int root_at; count = Int 8 };
      Read_entries { dst = Int entries_at; count = Var "m" };
      (* authenticate: rebuild the Merkle root in-guest, compare *)
      Leaf_hashes { entries = Int entries_at; count = Var "m"; out = Int leaves_at };
      Merkle_root { leaves = Int leaves_at; count = Var "m" };
      If (Cmp8 (Int leaves_at, Int root_at), [], [ Halt (Int 1) ]);
      Commit_words { src = Int root_at; count = Int 8 };
      (* scan: violations = #entries with losses*100 > packets;
               worst = max over entries of losses*1000/packets,
               computed without division as a running comparison *)
      Let ("i", Int 0);
      Let ("violations", Int 0);
      Let ("worst_num", Int 0);   (* losses of the worst flow *)
      Let ("worst_den", Int 1);   (* its packets *)
      Let ("base", Int 0);
      Let ("pk", Int 0);
      Let ("ls", Int 0);
      While
        ( Bin (Lt, Var "i", Var "m"),
          [
            Set ("base", Bin (Add, Int entries_at, Bin (Mul, Var "i", Int entry_stride)));
            Set ("pk", Load (Bin (Add, Var "base", Int 4)));
            Set ("ls", Load (Bin (Add, Var "base", Int 7)));
            If
              ( Bin (Gt, Bin (Mul, Var "ls", Int 100), Var "pk"),
                [ Set ("violations", Bin (Add, Var "violations", Int 1)) ],
                [] );
            (* ls/pk > worst_num/worst_den  ⇔  ls*worst_den > worst_num*pk *)
            If
              ( Bin
                  ( Gt,
                    Bin (Mul, Var "ls", Var "worst_den"),
                    Bin (Mul, Var "worst_num", Var "pk") ),
                [ Set ("worst_num", Var "ls"); Set ("worst_den", Var "pk") ],
                [] );
            Set ("i", Bin (Add, Var "i", Int 1));
          ] );
      Commit (Var "violations");
      (* worst loss in permille, rounded down *)
      Let ("permille", Int 0);
      While
        ( Bin
            ( Ge,
              Bin (Mul, Var "worst_num", Int 1000),
              Bin (Mul, Bin (Add, Var "permille", Int 1), Var "worst_den") ),
          [ Set ("permille", Bin (Add, Var "permille", Int 1)) ] );
      Commit (Var "permille");
    ]

let () =
  print_endline "Custom verifiable query, written in Zirc:";
  Format.printf "%a@.@." Zirc.pp_program audit_query;

  (* Operator state: a CLog with a couple of noisy flows. *)
  let rng = Zkflow_util.Rng.create 99L in
  let records = Gen.records rng Gen.default_profile ~router_id:0 ~count:12 in
  records.(3) <-
    Record.make ~key:records.(3).Record.key
      { records.(3).Record.metrics with Record.packets = 1000; losses = 45 };
  let clog = Clog.apply_batch Clog.empty records in
  let input =
    Array.concat
      [
        [| Clog.length clog |];
        Zkflow_zkvm.Guestlib.words_of_digest
          (Zkflow_hash.Digest32.to_bytes (Clog.root clog));
        Clog.words clog;
      ]
  in

  (* Compile, prove, verify. *)
  let program =
    match Zirc.compile audit_query with Ok p -> p | Error e -> failwith e
  in
  let params = Zkflow_zkproof.Params.make ~queries:16 in
  (match Zkflow_zkproof.Prove.prove ~params program ~input with
   | Error e -> failwith e
   | Ok (receipt, run) ->
     Printf.printf "operator: proved in %d guest cycles; receipt %d KB\n"
       run.Zkflow_zkvm.Machine.cycles
       (Zkflow_zkproof.Receipt.size receipt / 1024);
     (* auditor: verify the receipt against the pinned program, check
        the root in the journal, read the attested outputs *)
     (match Zkflow_zkproof.Verify.verify ~program receipt with
      | Ok () -> ()
      | Error e -> failwith ("auditor: " ^ e));
     let journal = run.Zkflow_zkvm.Machine.journal in
     let root =
       Zkflow_hash.Digest32.of_bytes
         (Zkflow_zkvm.Guestlib.digest_of_words (Array.sub journal 0 8))
     in
     assert (Zkflow_hash.Digest32.equal root (Clog.root clog));
     Printf.printf
       "auditor: attested — %d flow(s) above 1%% loss; worst flow loses %d‰\n"
       journal.(8) journal.(9));

  (* The same program under the reference interpreter (for tests/dev). *)
  match Zirc.interpret audit_query ~input with
  | Ok o ->
    Printf.printf "interpreter cross-check: violations=%d worst=%d‰\n"
      o.Zirc.journal.(8) o.Zirc.journal.(9)
  | Error e -> failwith e
