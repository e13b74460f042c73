open Zkflow_merkle
module D = Zkflow_hash.Digest32

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let digest = Alcotest.testable D.pp D.equal
let leaves n = Array.init n (fun i -> Bytes.of_string (Printf.sprintf "leaf-%d" i))

(* Every tree here is built over its leaves as one column. *)
let of_leaves ~node data = Tree.of_leaves ~node (Zkflow_util.Column.of_array data)

(* The two node rules: the CLog tree's SHA-256 of the 64 child bytes,
   and the trace commitments' single compression from the node IV. *)
let digest64 = Zkflow_hash.Sha256.digest64
let rules = [ ("digest64", digest64); ("node64", Zkflow_hash.Sha256.node64) ]

(* ---- Tree ---- *)

let test_tree_deterministic_root () =
  let t1 = of_leaves ~node:digest64 (leaves 5)
  and t2 = of_leaves ~node:digest64 (leaves 5) in
  Alcotest.check digest "same root" (Tree.root t1) (Tree.root t2)

let test_tree_root_depends_on_content () =
  let a = of_leaves ~node:digest64 (leaves 4) in
  let modified = leaves 4 in
  modified.(2) <- Bytes.of_string "tampered";
  let b = of_leaves ~node:digest64 modified in
  check_bool "root changes" false (D.equal (Tree.root a) (Tree.root b))

let test_tree_root_depends_on_order () =
  let l = leaves 4 in
  let swapped = Array.copy l in
  swapped.(0) <- l.(1);
  swapped.(1) <- l.(0);
  check_bool "order matters" false
    (D.equal
       (Tree.root (of_leaves ~node:digest64 l))
       (Tree.root (of_leaves ~node:digest64 swapped)))

let test_tree_sizes_and_depth () =
  check_int "size 1 depth" 0 (Tree.depth (of_leaves ~node:digest64 (leaves 1)));
  check_int "size 2 depth" 1 (Tree.depth (of_leaves ~node:digest64 (leaves 2)));
  check_int "size 3 depth" 2 (Tree.depth (of_leaves ~node:digest64 (leaves 3)));
  check_int "size 5 depth" 3 (Tree.depth (of_leaves ~node:digest64 (leaves 5)));
  check_int "size recorded" 5 (Tree.size (of_leaves ~node:digest64 (leaves 5)))

let test_tree_padding_distinguishes_sizes () =
  (* A 3-leaf tree must not equal the 4-leaf tree whose 4th leaf is the
     padding value's preimage-less digest... they share digests only if
     the 4th real leaf hash equals the padding digest, which leaf
     domain separation prevents for real data. *)
  let t3 = of_leaves ~node:digest64 (leaves 3)
  and t4 = of_leaves ~node:digest64 (leaves 4) in
  check_bool "3 vs 4 leaves" false (D.equal (Tree.root t3) (Tree.root t4))

let test_tree_two_leaf_root_is_combine () =
  let l = leaves 2 in
  let expected = D.combine (Tree.leaf_hash l.(0)) (Tree.leaf_hash l.(1)) in
  Alcotest.check digest "combine rule" expected
    (Tree.root (of_leaves ~node:digest64 l))

(* [of_leaves] hashes leaves straight into its level buffer; it must
   agree with building over the digests and with climbing a path, for
   every padding shape and under both node rules. Repeated leaves
   exercise the equal-neighbour copies. *)
let test_tree_of_leaves_agrees () =
  List.iter
    (fun (rule, node) ->
      for n = 0 to 17 do
        let data = Array.init n (fun i -> (leaves 17).(i / 3)) in
        let hs = Array.map Tree.leaf_hash data in
        let t = of_leaves ~node data in
        let tag s = Printf.sprintf "%s n=%d %s" rule n s in
        Alcotest.check digest (tag "of_leaf_hashes")
          (Tree.root (Tree.of_leaf_hashes ~node hs))
          (Tree.root t);
        for i = 0 to n - 1 do
          Alcotest.check digest (tag "leaf") hs.(i) (Tree.leaf t i);
          Alcotest.check digest (tag "compute_root") (Tree.root t)
            (Proof.compute_root ~node (Tree.prove t i) hs.(i))
        done
      done)
    rules;
  (* The rules disagree, so a tree cannot pass for one built under the
     other. *)
  let roots =
    List.map (fun (_, node) -> Tree.root (of_leaves ~node (leaves 5))) rules
  in
  check_bool "rules give different roots" false
    (D.equal (List.hd roots) (List.nth roots 1))

let test_tree_leaf_accessor () =
  let t = of_leaves ~node:digest64 (leaves 3) in
  Alcotest.check digest "leaf 0" (Tree.leaf_hash (Bytes.of_string "leaf-0")) (Tree.leaf t 0);
  Alcotest.check_raises "oob" (Invalid_argument "Tree.leaf: index out of range")
    (fun () -> ignore (Tree.leaf t 3))

(* ---- Proof ---- *)

let test_proof_roundtrip_all_indices () =
  List.iter
    (fun n ->
      let data = leaves n in
      let t = of_leaves ~node:digest64 data in
      for i = 0 to n - 1 do
        let p = Tree.prove t i in
        check_bool
          (Printf.sprintf "n=%d i=%d" n i)
          true
          (Proof.verify ~node:digest64 ~root:(Tree.root t) ~leaf_hash:(Tree.leaf t i) p);
        check_bool "verify_data" true
          (Proof.verify_data ~node:digest64 ~root:(Tree.root t) data.(i) p)
      done)
    [ 1; 2; 3; 4; 7; 8; 9; 16; 33 ]

let test_proof_rejects_wrong_leaf () =
  let t = of_leaves ~node:digest64 (leaves 8) in
  let p = Tree.prove t 3 in
  check_bool "wrong leaf" false
    (Proof.verify ~node:digest64 ~root:(Tree.root t) ~leaf_hash:(Tree.leaf t 4) p)

let test_proof_rejects_wrong_root () =
  let t = of_leaves ~node:digest64 (leaves 8)
  and t2 = of_leaves ~node:digest64 (leaves 9) in
  let p = Tree.prove t 3 in
  check_bool "wrong root" false
    (Proof.verify ~node:digest64 ~root:(Tree.root t2) ~leaf_hash:(Tree.leaf t 3) p)

let test_proof_rejects_tampered_sibling () =
  let t = of_leaves ~node:digest64 (leaves 8) in
  let p = Tree.prove t 5 in
  let tampered =
    { p with Proof.siblings = Array.map Fun.id p.Proof.siblings }
  in
  tampered.Proof.siblings.(1) <- D.hash_string "evil";
  check_bool "tampered path" false
    (Proof.verify ~node:digest64 ~root:(Tree.root t) ~leaf_hash:(Tree.leaf t 5) tampered)

let prop_proof_sound_random_trees =
  QCheck.Test.make ~name:"proofs verify on random trees" ~count:50
    QCheck.(pair (int_range 1 40) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Zkflow_util.Rng.create (Int64.of_int seed) in
      let data = Array.init n (fun _ -> Zkflow_util.Rng.bytes rng 20) in
      let t = of_leaves ~node:digest64 data in
      let i = seed mod n in
      Proof.verify_data ~node:digest64 ~root:(Tree.root t) data.(i) (Tree.prove t i))

(* ---- Multiproof ---- *)

let mp_verify t mp idx =
  Multiproof.verify ~node:digest64 ~root:(Tree.root t) mp
    (Multiproof.leaf_digests (List.map (Tree.leaf t) (Array.to_list idx)))

let test_multiproof_basic () =
  let t = of_leaves ~node:digest64 (leaves 16) in
  let idx = [| 1; 5; 6; 12 |] in
  check_bool "verifies" true (mp_verify t (Multiproof.prove t idx) idx)

let test_multiproof_all_leaves_needs_no_helpers () =
  let t = of_leaves ~node:digest64 (leaves 8) in
  let idx = Array.init 8 Fun.id in
  let mp = Multiproof.prove t idx in
  check_int "no helpers" 0 (Bytes.length mp.Multiproof.helpers);
  check_bool "verifies" true (mp_verify t mp idx)

let test_multiproof_smaller_than_individual () =
  let t = of_leaves ~node:digest64 (leaves 64) in
  let idx = Array.init 8 Fun.id in
  let individual = Array.length idx * Tree.depth t in
  check_bool "dedup effective" true
    (Multiproof.helper_count ~depth:(Tree.depth t) idx < individual)

let test_multiproof_rejects_wrong_leaf () =
  let t = of_leaves ~node:digest64 (leaves 16) in
  let mp = Multiproof.prove t [| 2; 9 |] in
  check_bool "wrong leaf" false (mp_verify t mp [| 2; 10 |])

let test_multiproof_rejects_count_mismatch () =
  let t = of_leaves ~node:digest64 (leaves 16) in
  let mp = Multiproof.prove t [| 2; 9 |] in
  check_bool "count mismatch" false (mp_verify t mp [| 2 |])

let test_multiproof_input_validation () =
  let t = of_leaves ~node:digest64 (leaves 8) in
  Alcotest.check_raises "empty" (Invalid_argument "Multiproof.prove: empty index set")
    (fun () -> ignore (Multiproof.prove t [||]));
  Alcotest.check_raises "dup" (Invalid_argument "Multiproof.prove: duplicate indices")
    (fun () -> ignore (Multiproof.prove t [| 1; 1 |]));
  Alcotest.check_raises "descending" (Invalid_argument "Multiproof.prove: indices not ascending")
    (fun () -> ignore (Multiproof.prove t [| 3; 1 |]));
  Alcotest.check_raises "oob" (Invalid_argument "Multiproof.prove: index out of range")
    (fun () -> ignore (Multiproof.prove t [| 8 |]));
  (* the verifier's side refuses the same sets as values *)
  let root idx =
    Multiproof.compute_root ~node:digest64
      { Multiproof.depth = 3; indices = idx; helpers = Bytes.empty }
      (Bytes.make (32 * Array.length idx) '\000')
  in
  List.iter
    (fun (what, idx, e) -> Alcotest.(check (result reject string)) what (Error e) (root idx))
    [
      ("empty", [||], "multiproof: empty index set");
      ("dup", [| 1; 1 |], "multiproof: duplicate indices");
      ("descending", [| 3; 1 |], "multiproof: indices not ascending");
      ("outside the padded tree", [| 8 |], "multiproof: index out of range");
      ("negative", [| -1 |], "multiproof: index out of range");
    ]

let test_multiproof_encode_decode () =
  let t = of_leaves ~node:digest64 (leaves 20) in
  let idx = [| 0; 7; 19 |] in
  let mp = Multiproof.prove t idx in
  let b = Multiproof.encode mp in
  match Multiproof.decode b 0 with
  | Error e -> Alcotest.fail e
  | Ok (mp', off) ->
    check_int "consumed" (Bytes.length b) off;
    check_bool "verifies" true (mp_verify t mp' idx);
    (* more helpers than indices × depth is refused before reading them *)
    let w = Buffer.create 16 in
    List.iter (Zkflow_util.Varint.write w) [ 5; 1; 0; 6 ];
    check_bool "helper count bounded" true
      (Result.is_error (Multiproof.decode (Buffer.to_bytes w) 0))

let prop_multiproof_random_subsets =
  QCheck.Test.make ~name:"multiproof on random subsets" ~count:60
    QCheck.(pair (int_range 1 50) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Zkflow_util.Rng.create (Int64.of_int seed) in
      let data = Array.init n (fun _ -> Zkflow_util.Rng.bytes rng 16) in
      let t = of_leaves ~node:digest64 data in
      let k = 1 + Zkflow_util.Rng.int rng n in
      let all = Array.init n Fun.id in
      Zkflow_util.Rng.shuffle rng all;
      let idx = Array.sub all 0 k in
      Array.sort Int.compare idx;
      mp_verify t (Multiproof.prove t idx) idx)

(* One multiproof under both node rules, over trees of 1 to 4096
   leaves (most sizes not powers of two) and random non-empty index
   sets: the climb reaches [Tree.root], carries the helper count the
   index set implies, and every one-place tamper is refused as a value,
   never raised. *)
let prop_multiproof_both_rules =
  QCheck.Test.make ~name:"multiproof both rules, sizes 1-4096" ~count:150
    QCheck.(pair (oneof [ int_range 1 40; int_range 1 4096 ]) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Zkflow_util.Rng.create (Int64.of_int seed) in
      let pick n = Zkflow_util.Rng.int rng n in
      let node = snd (List.nth rules (seed mod 2)) in
      let data =
        Array.init n (fun _ ->
            if pick 4 = 0 then Bytes.of_string "dup" else Zkflow_util.Rng.bytes rng 8)
      in
      let t = of_leaves ~node data in
      let idx =
        Array.of_list (List.sort_uniq Int.compare (List.init (1 + pick (min n 64)) (fun _ -> pick n)))
      in
      let mp = Multiproof.prove t idx in
      let leaves =
        Multiproof.leaf_digests (List.map (Tree.leaf t) (Array.to_list idx))
      in
      let root mp leaves = Multiproof.compute_root ~node mp leaves in
      let refused mp leaves =
        match root mp leaves with
        | Ok r -> not (D.equal r (Tree.root t))
        | Error _ -> true
        | exception _ -> false
      in
      let flip b at =
        let b = Bytes.copy b in
        Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl pick 8)));
        b
      in
      let helpers = mp.Multiproof.helpers in
      let h = Bytes.length helpers / 32 and k = Array.length idx in
      let with_helpers helpers = { mp with Multiproof.helpers } in
      root mp leaves = Ok (Tree.root t)
      && h = Multiproof.helper_count ~depth:(Tree.depth t) idx
      && refused mp (flip leaves (pick (32 * k)))
      && (h = 0 || refused (with_helpers (flip helpers (pick (32 * h)))) leaves)
      && (h = 0 || refused (with_helpers (Bytes.sub helpers 0 (32 * (h - 1)))) leaves)
      && refused (with_helpers (Bytes.cat helpers (Bytes.make 32 '\001'))) leaves
      && refused mp (Bytes.sub leaves 0 (32 * (k - 1)))
      && refused mp (Bytes.cat leaves (Bytes.sub leaves 0 32)))

(* ---- golden vectors ----

   Literal roots fixed before the node hash was rewritten. Every node
   path (build over leaves and over digests, the inclusion-proof and
   multiproof walks) must reproduce them, so a
   change to the node rule cannot pass by changing [Tree] and
   [Digest32.combine] the same way. The leaves are short, so the
   padding leaf and its subtrees, which the equal-neighbour rule
   copies, are exercised. *)

let golden_root_5 = "774e0f5df57c5ce9cb0b1be86367baf68abf452413d146704c5472841b260a9b"
let golden_root_1000 = "3bda6aef4f66e9e7b4c2638e08fa27eca72ba049a300e3007ebcf250c3320318"

let test_golden_roots () =
  List.iter
    (fun (n, expected) ->
      let data = leaves n in
      let tree = of_leaves ~node:digest64 data in
      let hs = Array.map Tree.leaf_hash data in
      let check what d =
        Alcotest.(check string) (Printf.sprintf "n=%d %s" n what) expected (D.to_hex d)
      in
      check "Tree.of_leaves" (Tree.root tree);
      check "of_leaf_hashes" (Tree.root (Tree.of_leaf_hashes ~node:digest64 hs));
      check "Proof.compute_root"
        (Proof.compute_root ~node:digest64 (Tree.prove tree (n - 1)) hs.(n - 1));
      check "Multiproof.compute_root"
        (Result.get_ok
           (Multiproof.compute_root ~node:digest64
              (Multiproof.prove tree [| 0; n - 1 |])
              (Multiproof.leaf_digests [ hs.(0); hs.(n - 1) ]))))
    [ (5, golden_root_5); (1000, golden_root_1000) ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "zkflow_merkle"
    [
      ( "tree",
        [
          Alcotest.test_case "deterministic root" `Quick test_tree_deterministic_root;
          Alcotest.test_case "content-sensitive" `Quick test_tree_root_depends_on_content;
          Alcotest.test_case "order-sensitive" `Quick test_tree_root_depends_on_order;
          Alcotest.test_case "sizes and depth" `Quick test_tree_sizes_and_depth;
          Alcotest.test_case "padding" `Quick test_tree_padding_distinguishes_sizes;
          Alcotest.test_case "two-leaf combine" `Quick test_tree_two_leaf_root_is_combine;
          Alcotest.test_case "of_leaves == of_leaf_hashes" `Quick test_tree_of_leaves_agrees;
          Alcotest.test_case "leaf accessor" `Quick test_tree_leaf_accessor;
          Alcotest.test_case "golden roots" `Quick test_golden_roots;
        ] );
      ( "proof",
        [
          Alcotest.test_case "roundtrip all indices" `Quick test_proof_roundtrip_all_indices;
          Alcotest.test_case "rejects wrong leaf" `Quick test_proof_rejects_wrong_leaf;
          Alcotest.test_case "rejects wrong root" `Quick test_proof_rejects_wrong_root;
          Alcotest.test_case "rejects tampered path" `Quick test_proof_rejects_tampered_sibling;
          q prop_proof_sound_random_trees;
        ] );
      ( "multiproof",
        [
          Alcotest.test_case "basic" `Quick test_multiproof_basic;
          Alcotest.test_case "all leaves, no helpers" `Quick test_multiproof_all_leaves_needs_no_helpers;
          Alcotest.test_case "dedup vs individual" `Quick test_multiproof_smaller_than_individual;
          Alcotest.test_case "rejects wrong leaf" `Quick test_multiproof_rejects_wrong_leaf;
          Alcotest.test_case "rejects count mismatch" `Quick test_multiproof_rejects_count_mismatch;
          Alcotest.test_case "input validation" `Quick test_multiproof_input_validation;
          Alcotest.test_case "encode/decode" `Quick test_multiproof_encode_decode;
          q prop_multiproof_random_subsets;
          q prop_multiproof_both_rules;
        ] );
    ]
