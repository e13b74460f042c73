open Zkflow_hash

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let hex = Zkflow_util.Hexcodec.encode

(* ---- SHA-256: FIPS / NIST CAVP vectors ---- *)

let sha_hex s = hex (Sha256.digest_string s)

let test_sha_empty () =
  check_string "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (sha_hex "")

let test_sha_abc () =
  check_string "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (sha_hex "abc")

let test_sha_448bit () =
  check_string "two-block boundary"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (sha_hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha_896bit () =
  check_string "long vector"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (sha_hex
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")

let test_sha_million_a () =
  let ctx = Sha256.init () in
  let chunk = Bytes.make 10_000 'a' in
  for _ = 1 to 100 do
    Sha256.update ctx chunk
  done;
  check_string "1M x 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (hex (Sha256.finalize ctx))

let test_sha_streaming_equals_oneshot () =
  let msg = Bytes.init 333 (fun i -> Char.chr (i land 0xff)) in
  let ctx = Sha256.init () in
  (* Deliberately awkward split points around the 64-byte block size. *)
  Sha256.update_sub ctx msg ~pos:0 ~len:1;
  Sha256.update_sub ctx msg ~pos:1 ~len:63;
  Sha256.update_sub ctx msg ~pos:64 ~len:64;
  Sha256.update_sub ctx msg ~pos:128 ~len:100;
  Sha256.update_sub ctx msg ~pos:228 ~len:105;
  check_string "streaming" (hex (Sha256.digest msg)) (hex (Sha256.finalize ctx))

let test_sha_finalize_once () =
  let ctx = Sha256.init () in
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "reuse rejected"
    (Invalid_argument "Sha256: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

let test_sha_update_sub_bounds () =
  let ctx = Sha256.init () in
  Alcotest.check_raises "oob"
    (Invalid_argument "Sha256.update_sub: out of bounds") (fun () ->
      Sha256.update_sub ctx (Bytes.create 4) ~pos:2 ~len:3)

let test_sha_digest_concat () =
  let parts = [ Bytes.of_string "ab"; Bytes.of_string "c" ] in
  check_string "concat" (sha_hex "abc") (hex (Sha256.digest_concat parts))

let prop_sha_streaming =
  QCheck.Test.make ~name:"arbitrary split = one-shot" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 300)) small_nat)
    (fun (s, cut) ->
      let b = Bytes.of_string s in
      let n = Bytes.length b in
      let cut = if n = 0 then 0 else cut mod (n + 1) in
      let ctx = Sha256.init () in
      Sha256.update_sub ctx b ~pos:0 ~len:cut;
      Sha256.update_sub ctx b ~pos:cut ~len:(n - cut);
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest b))

(* Known answers at the padding-spill boundaries: 55 bytes is the
   longest message whose length fits in its last block, 56 and 63 spill
   the length into an extra block, 64 is one full block, and 119/120
   repeat the boundary one block later. The message is bytes 0..n-1;
   the digests were computed independently (python3 hashlib and
   sha256sum agree). *)
let padding_boundary_vectors =
  [
    (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
    (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
    (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
    (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
    (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
    (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
  ]

let test_sha_padding_boundaries () =
  List.iter
    (fun (n, expected) ->
      let msg = String.init n Char.chr in
      check_string (Printf.sprintf "%d bytes" n) expected (sha_hex msg);
      (* the same message streamed a byte at a time through one ctx *)
      let ctx = Sha256.init () in
      String.iter (fun c -> Sha256.update_string ctx (String.make 1 c)) msg;
      check_string (Printf.sprintf "%d bytes streamed" n) expected
        (hex (Sha256.finalize ctx)))
    padding_boundary_vectors

(* ---- the 64-byte node primitives ----

   [digest64_into] is the SHA-256 of the 64 bytes; [node64_into] is one
   compression of them from [node_iv]. The cases below run against
   both, each with its own name (for the bounds message) and its own
   reference function. *)

let node_iv_hex = "b22b94ca8f669f59bce4b379d57e17f6a1ecd33b3d429e350bcee3338fed3a2d"

let words_digest ws =
  let out = Bytes.create (4 * Array.length ws) in
  Array.iteri (fun i w -> Bytes.set_int32_be out (4 * i) (Int32.of_int w)) ws;
  out

let words_hex ws = hex (words_digest ws)

let block_words b pos =
  Array.init 16 (fun i ->
      Int32.to_int (Bytes.get_int32_be b (pos + (4 * i))) land 0xffffffff)

(* One raw compression of [b.[pos..pos+63]] from [node_iv], through a
   word-array entry: [Sha256.compress_words] (the zkVM accelerator's)
   or the OCaml reference. *)
let node_with compress b ~pos ~len:_ =
  words_digest (compress Sha256.node_iv (block_words b pos))

let node_reference = node_with Sha256.compress_words

let primitives =
  [
    ("Sha256.digest64_into", Sha256.digest64_into, Sha256.digest_sub);
    ("Sha256.node64_into", Sha256.node64_into, node_reference);
  ]

let test_node_iv () =
  check_string "node_iv" node_iv_hex (words_hex Sha256.node_iv);
  let block = Bytes.make 64 '\000' in
  Bytes.blit_string "zkflow.node.v2" 0 block 0 14;
  check_string "one tag block from the IV" node_iv_hex
    (words_hex (Sha256.compress_words Sha256.iv (block_words block 0)))

(* Each primitive's answer on bytes 0..63, and the compressions it
   counts. *)
let test_digest64_known_answer () =
  let compressions = Zkflow_obs.Metric.counter "sha256.compressions" in
  List.iter
    (fun (name, prim, expected, blocks) ->
      let src = Bytes.init 64 Char.chr and dst = Bytes.make 32 '\000' in
      let counted =
        Zkflow_obs.Obs.with_enabled (fun () ->
            prim (Sha256.init ()) ~src ~src_pos:0 ~dst ~dst_pos:0;
            Zkflow_obs.Metric.value compressions)
      in
      check_string (name ^ " bytes 0..63") expected (hex dst);
      Alcotest.(check int) (name ^ " compressions") blocks counted)
    [
      ("digest64_into", Sha256.digest64_into, List.assoc 64 padding_boundary_vectors, 2);
      ( "node64_into",
        Sha256.node64_into,
        "e34666decbdb20191fc17c39031a225c99966c751737283914859e378b315eef",
        1 );
    ]

(* A window out of range is refused before any kernel runs: nothing
   is counted, the slot is untouched and [ctx] is not even
   finalized. *)
let test_digest64_bounds () =
  let compressions = Zkflow_obs.Metric.counter "sha256.compressions" in
  List.iter
    (fun (name, prim, reference) ->
      let ctx = Sha256.init () in
      let src = Bytes.create 100 and dst = Bytes.make 40 'd' in
      let error = Invalid_argument (name ^ ": out of bounds") in
      let rejects what ~src_pos ~dst_pos =
        let counted =
          Zkflow_obs.Obs.with_enabled (fun () ->
              let before = Zkflow_obs.Metric.value compressions in
              Alcotest.check_raises what error (fun () -> prim ctx ~src ~src_pos ~dst ~dst_pos);
              Zkflow_obs.Metric.value compressions - before)
        in
        Alcotest.(check int) (what ^ ": nothing compressed") 0 counted;
        check_string (what ^ ": slot untouched") (String.make 40 'd') (Bytes.to_string dst);
        match Sha256.update_string ctx "more" with
        | () -> ()
        | exception Invalid_argument _ -> Alcotest.failf "%s: context finalized" what
      in
      rejects "negative src_pos" ~src_pos:(-1) ~dst_pos:0;
      rejects "source window past the end" ~src_pos:37 ~dst_pos:0;
      rejects "negative dst_pos" ~src_pos:0 ~dst_pos:(-1);
      rejects "destination slot past the end" ~src_pos:0 ~dst_pos:9;
      rejects "huge src_pos" ~src_pos:max_int ~dst_pos:0;
      rejects "huge dst_pos" ~src_pos:0 ~dst_pos:max_int;
      Alcotest.check_raises "63-byte source" error (fun () ->
          prim ctx ~src:(Bytes.create 63) ~src_pos:0 ~dst ~dst_pos:0);
      (* the last in-range windows are accepted *)
      prim ctx ~src ~src_pos:36 ~dst ~dst_pos:8;
      check_string (name ^ " last windows") (hex (reference src ~pos:36 ~len:64))
        (hex (Bytes.sub dst 8 32)))
    primitives

let test_digest64_reuses_finalized_ctx () =
  (* The primitive discards whatever the ctx held and leaves it
     finalized; a reset makes it a fresh streaming ctx again. *)
  List.iter
    (fun (name, prim, reference) ->
      let ctx = Sha256.init () in
      Sha256.update_string ctx "half a message";
      let src = Bytes.make 64 'n' and dst = Bytes.create 32 in
      prim ctx ~src ~src_pos:0 ~dst ~dst_pos:0;
      check_string
        (name ^ " in-progress message ignored")
        (hex (reference src ~pos:0 ~len:64))
        (hex dst);
      Alcotest.check_raises "left finalized"
        (Invalid_argument "Sha256: context already finalized") (fun () ->
          Sha256.update_string ctx "more");
      Sha256.reset ctx;
      Sha256.update_string ctx "abc";
      check_string "reset works" (sha_hex "abc") (hex (Sha256.finalize ctx)))
    primitives

(* A buffer, a 64-byte source window and a 32-byte destination slot,
   both anywhere in the same buffer — so the slot overlaps the window
   in a good share of the cases. *)
let window =
  let gen =
    QCheck.Gen.(
      int_range 64 160 >>= fun len ->
      string_size (return len) >>= fun s ->
      int_range 0 (len - 64) >>= fun src_pos ->
      int_range 0 (len - 32) >|= fun dst_pos -> (s, src_pos, dst_pos))
  in
  let print (s, src_pos, dst_pos) =
    Printf.sprintf "len=%d src_pos=%d dst_pos=%d" (String.length s) src_pos dst_pos
  in
  QCheck.make ~print gen

(* The slot holds [reference] of the window, and every other byte is
   untouched. *)
let writes_window prim reference (s, src_pos, dst_pos) =
  let buf = Bytes.of_string s in
  let expected = reference buf ~pos:src_pos ~len:64 in
  prim (Sha256.init ()) ~src:buf ~src_pos ~dst:buf ~dst_pos;
  Bytes.equal (Bytes.sub buf dst_pos 32) expected
  && List.for_all
       (fun i -> Bytes.get buf i = s.[i])
       (List.filter
          (fun i -> i < dst_pos || i >= dst_pos + 32)
          (List.init (String.length s) Fun.id))

let prop_digest64_matches_digest_sub =
  QCheck.Test.make ~name:"digest64_into writes digest_sub of the window" ~count:500 window
    (writes_window Sha256.digest64_into Sha256.digest_sub)

let prop_node64_is_one_compression =
  QCheck.Test.make ~name:"node64_into is compress_words from node_iv" ~count:500 window
    (writes_window Sha256.node64_into node_reference)

(* ---- the live kernel against the OCaml reference ----

   [Sha256.reference_compress_words] always runs the OCaml rounds. On
   a CPU with the SHA extensions the live kernel is the hardware one,
   and the differential cases check it against the reference, reading
   blocks at every alignment and writing digests over their own
   source. Elsewhere the live kernel is the reference itself, so those
   cases report a skip; the runner prints the live kernel first, so a
   log shows which path ran. *)

(* SHA-256 of [b.[pos .. pos+len-1]], padded here and compressed
   block by block on the reference rounds. *)
let reference_sha256 b ~pos ~len =
  let padded = (len + 9 + 63) / 64 * 64 in
  let m = Bytes.make padded '\000' in
  Bytes.blit b pos m 0 len;
  Bytes.set m len '\x80';
  Bytes.set_int64_be m (padded - 8) (Int64.of_int (8 * len));
  let st = ref Sha256.iv in
  for i = 0 to (padded / 64) - 1 do
    st := Sha256.reference_compress_words !st (block_words m (64 * i))
  done;
  words_digest !st

let reference_node = node_with Sha256.reference_compress_words

let test_reference_known_answers () =
  List.iter
    (fun (n, expected) ->
      let msg = Bytes.init n Char.chr in
      check_string (Printf.sprintf "%d bytes" n) expected
        (hex (reference_sha256 msg ~pos:0 ~len:n)))
    ((0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    :: padding_boundary_vectors);
  check_string "node_iv" node_iv_hex
    (words_hex
       (Sha256.reference_compress_words Sha256.iv
          (block_words (Bytes.init 64 (fun i -> if i < 14 then "zkflow.node.v2".[i] else '\000')) 0)))

(* A differential case runs only when there is a second kernel to
   compare. *)
let on_hardware (name, speed, run) =
  ( name,
    speed,
    fun () ->
      if Sha256.kernel = "ocaml" then begin
        Printf.printf "live kernel %s: nothing to compare with the reference\n" Sha256.kernel;
        Alcotest.skip ()
      end
      else run () )

let u32 = QCheck.Gen.(map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xffff) (int_bound 0xffff))

let prop_kernel_block =
  QCheck.Test.make ~name:"live block = reference block" ~count:1000
    (QCheck.make
       ~print:(fun (st, blk) ->
         Printf.sprintf "state=%s block=%s" (words_hex st) (words_hex blk))
       QCheck.Gen.(pair (array_size (return 8) u32) (array_size (return 16) u32)))
    (fun (st, blk) -> Sha256.compress_words st blk = Sha256.reference_compress_words st blk)

(* A message of up to five blocks at any offset of a larger buffer:
   whole blocks are compressed straight from the buffer, unaligned,
   and every block after the first starts from a state the message
   chose. *)
let prop_kernel_offsets =
  QCheck.Test.make ~name:"digest_sub at any offset = reference" ~count:300
    (QCheck.make
       ~print:(fun (s, pos, len) -> Printf.sprintf "buf=%d pos=%d len=%d" (String.length s) pos len)
       QCheck.Gen.(
         int_range 0 320 >>= fun len ->
         int_range 0 63 >>= fun pos ->
         string_size (return (pos + len + 16)) >|= fun s -> (s, pos, len)))
    (fun (s, pos, len) ->
      let b = Bytes.of_string s in
      Bytes.equal (Sha256.digest_sub b ~pos ~len) (reference_sha256 b ~pos ~len))

let prop_kernel_digest64_overlap =
  QCheck.Test.make ~name:"digest64_into over its source = reference" ~count:500 window
    (writes_window Sha256.digest64_into reference_sha256)

let prop_kernel_node64_overlap =
  QCheck.Test.make ~name:"node64_into over its source = reference" ~count:500 window
    (writes_window Sha256.node64_into reference_node)

(* ---- the batch kernels against per-slot loops ----

   [Sha256.level_into] and [Sha256.leaves_into] run their loops in C
   on SHA-NI. Each is compared with a loop that hashes one slot at a
   time through the one-slot primitives, applying the equal-neighbour
   rule itself: same bytes everywhere in the buffer, same hashed
   count, and compressions that match. *)

let compressions = Zkflow_obs.Metric.counter "sha256.compressions"

(* [f ()] and the compressions it counted. *)
let counted f =
  Zkflow_obs.Obs.with_enabled (fun () ->
      let before = Zkflow_obs.Metric.value compressions in
      let r = f () in
      (r, Zkflow_obs.Metric.value compressions - before))

let rules = [ ("digest64", Sha256.digest64, 2); ("node64", Sha256.node64, 1) ]

let level_per_node rule buf ~src ~dst ~lo ~hi =
  let ctx = Sha256.init () and hashed = ref 0 in
  for i = lo to hi - 1 do
    let src_pos = 32 * (src + (2 * i)) and dst_pos = 32 * (dst + i) in
    if i > lo && Bytes.equal (Bytes.sub buf src_pos 64) (Bytes.sub buf (src_pos - 64) 64) then
      Bytes.blit buf (dst_pos - 32) buf dst_pos 32
    else begin
      Sha256.node_into rule ctx ~src:buf ~src_pos ~dst:buf ~dst_pos;
      incr hashed
    end
  done;
  !hashed

(* A level of [width] parents: 2·width child slots at [src], whose
   pairs repeat their left neighbour in runs, and the parent slots at
   [dst], before or after them with a gap; random bytes all round.
   The window [lo, hi) is random within the level. How often a pair
   repeats is drawn per case, from never to 15 times in 16, so runs
   of every length start and end on either lane of the kernel's pairs
   of runs, at the window's edges too. *)
let level_case =
  let gen =
    QCheck.Gen.(
      int_range 0 1 >>= fun rule ->
      int_range 0 300 >>= fun width ->
      int_range 0 3 >>= fun gap ->
      bool >>= fun dst_first ->
      int_range 0 width >>= fun a ->
      int_range 0 width >>= fun b ->
      oneofl [ 0; 4; 8; 12; 15 ] >>= fun density ->
      list_repeat width (map (fun r -> r < density) (int_bound 15)) >>= fun repeats ->
      int >|= fun seed -> (rule, width, gap, dst_first, min a b, max a b, repeats, seed))
  in
  let print (rule, width, gap, dst_first, lo, hi, repeats, seed) =
    Printf.sprintf "rule=%d width=%d gap=%d dst_first=%b lo=%d hi=%d repeats=%s seed=%d" rule
      width gap dst_first lo hi
      (String.concat "" (List.map (fun r -> if r then "r" else ".") repeats))
      seed
  in
  QCheck.make ~print gen

let prop_kernel_level =
  QCheck.Test.make ~name:"level_into = per-node loop" ~count:300 level_case
    (fun (rule, width, gap, dst_first, lo, hi, repeats, seed) ->
      let name, rule, blocks = List.nth rules rule in
      let slots = (3 * width) + gap + 2 in
      let src, dst = if dst_first then (1 + width + gap, 1) else (1, 1 + (2 * width) + gap) in
      let rng = Zkflow_util.Rng.create (Int64.of_int seed) in
      let buf = Zkflow_util.Rng.bytes rng (32 * slots) in
      (* a pair that repeats its left neighbour *)
      List.iteri
        (fun i r ->
          if i > 0 && r then
            Bytes.blit buf (32 * (src + (2 * (i - 1)))) buf (32 * (src + (2 * i))) 64)
        repeats;
      let live = Bytes.copy buf and reference = Bytes.copy buf in
      let hashed, c =
        counted (fun () -> Sha256.level_into rule (Sha256.init ()) live ~src ~dst ~lo ~hi)
      in
      let ref_hashed, ref_c =
        counted (fun () -> level_per_node rule reference ~src ~dst ~lo ~hi)
      in
      let outside_untouched =
        let a = 32 * (dst + lo) and b = 32 * (dst + hi) and len = Bytes.length buf in
        Bytes.equal (Bytes.sub live 0 a) (Bytes.sub buf 0 a)
        && Bytes.equal (Bytes.sub live b (len - b)) (Bytes.sub buf b (len - b))
      in
      if not (Bytes.equal live reference) then QCheck.Test.fail_reportf "%s: slots differ" name;
      hashed = ref_hashed && c = ref_c && c = blocks * hashed && outside_untouched)

(* The per-leaf reference: each leaf copied out of the column and
   streamed after the prefix, or slot i - 1 copied when the leaf holds
   the same bytes as leaf i - 1. Also returns the blocks it ran. *)
let leaves_per_leaf ~prefix col ~dst ~lo ~hi =
  let ctx = Sha256.init () and hashed = ref 0 and blocks = ref 0 in
  let leaf = Zkflow_util.Column.leaf col in
  for i = lo to hi - 1 do
    if i > lo && Bytes.equal (leaf i) (leaf (i - 1)) then
      Bytes.blit dst (32 * (i - 1)) dst (32 * i) 32
    else begin
      Sha256.reset ctx;
      Sha256.update ctx prefix;
      Sha256.update ctx (leaf i);
      Sha256.finalize_into ctx ~dst ~dst_pos:(32 * i);
      blocks := !blocks + ((Bytes.length prefix + Bytes.length (leaf i) + 9 + 63) / 64);
      incr hashed
    end
  done;
  (!hashed, !blocks)

(* Message lengths at the padding edges with no prefix (0, 55/56, 64,
   119/120) and behind the 12-byte leaf tag (43/44, 52/53, 107/108),
   and the longest row leaf, 187 bytes. *)
let edge_lengths = [ 0; 1; 43; 44; 52; 53; 55; 56; 64; 107; 108; 119; 120; 187; 200 ]

(* Up to 64 leaves in one column, with junk bytes before the first
   and after the last; each leaf is fresh, a copy of the previous one
   (a run of equal neighbours, which may cross the window's start),
   or the previous one with its last byte changed. How often a leaf
   copies the previous one is drawn per case, from never to nearly
   always, so runs of every length start and end on either lane of the
   kernel's pairs of runs. The prefix is empty or the 12-byte leaf
   tag. *)
let leaves_case =
  let leaf copies =
    QCheck.Gen.(
      pair
        (frequency [ (4, return 0); (copies, return 1); (1, return 2) ])
        (oneof [ oneofl edge_lengths; int_range 0 200 ] >>= fun n -> string_size (return n)))
  in
  let gen =
    QCheck.Gen.(
      oneofl [ 0; 2; 4; 16; 64 ] >>= fun copies ->
      list_size (int_range 0 64) (leaf copies) >>= fun leaves ->
      let n = List.length leaves in
      pair (int_range 0 n) (int_range 0 n) >>= fun (a, b) ->
      int_range 0 2 >>= fun extra ->
      int_range 0 3 >>= fun junk ->
      bool >|= fun tagged -> (leaves, min a b, max a b, extra, junk, tagged))
  in
  let print (leaves, lo, hi, extra, junk, tagged) =
    Printf.sprintf "lengths=[%s] lo=%d hi=%d extra=%d junk=%d tagged=%b"
      (String.concat ";"
         (List.map (fun (k, s) -> Printf.sprintf "%d:%d" k (String.length s)) leaves))
      lo hi extra junk tagged
  in
  QCheck.make ~print gen

let column_of_case leaves junk =
  let data = Array.of_list (List.map (fun (_, s) -> Bytes.of_string s) leaves) in
  List.iteri
    (fun i (kind, _) ->
      if i > 0 && kind = 1 then data.(i) <- Bytes.copy data.(i - 1)
      else if i > 0 && kind = 2 && Bytes.length data.(i - 1) > 0 then begin
        let b = Bytes.copy data.(i - 1) in
        let last = Bytes.length b - 1 in
        Bytes.set b last (Char.chr ((Char.code (Bytes.get b last) + 1) land 0xff));
        data.(i) <- b
      end)
    leaves;
  let flat = Zkflow_util.Column.of_array data in
  let pad = Bytes.make junk '#' in
  {
    Zkflow_util.Column.data = Bytes.concat Bytes.empty [ pad; flat.data; pad ];
    off = Array.map (( + ) junk) flat.off;
  }

let prop_kernel_leaves =
  QCheck.Test.make ~name:"leaves_into = leaf_hash_into per leaf" ~count:300 leaves_case
    (fun (leaves, lo, hi, extra, junk, tagged) ->
      let col = column_of_case leaves junk in
      let prefix = Bytes.of_string (if tagged then "zkflow.lf.v1" else "") in
      let n = Zkflow_util.Column.length col in
      let buf = Bytes.init (32 * (n + extra)) (fun k -> Char.chr (k land 0xff)) in
      let live = Bytes.copy buf and reference = Bytes.copy buf in
      let hashed, c =
        counted (fun () -> Sha256.leaves_into (Sha256.init ()) ~prefix col ~dst:live ~lo ~hi)
      in
      let (ref_hashed, blocks), ref_c =
        counted (fun () -> leaves_per_leaf ~prefix col ~dst:reference ~lo ~hi)
      in
      Bytes.equal live reference && hashed = ref_hashed && c = ref_c && c = blocks)

(* The array kernel against the column kernel over [Column.of_array]
   of the same leaves, on whichever kernel is live: the same slots,
   hashed count and compressions. *)
let prop_kernel_leaves_array =
  QCheck.Test.make ~name:"leaves_array_into = leaves_into over of_array" ~count:300
    leaves_case (fun (leaves, lo, hi, extra, junk, tagged) ->
      let col = column_of_case leaves junk in
      let n = Zkflow_util.Column.length col in
      let arr = Array.init n (Zkflow_util.Column.leaf col) in
      let prefix = Bytes.of_string (if tagged then "zkflow.lf.v1" else "") in
      let buf = Bytes.init (32 * (n + extra)) (fun k -> Char.chr (k land 0xff)) in
      let live = Bytes.copy buf and reference = Bytes.copy buf in
      let hashed, c =
        counted (fun () -> Sha256.leaves_array_into (Sha256.init ()) ~prefix arr ~dst:live ~lo ~hi)
      in
      let ref_hashed, ref_c =
        counted (fun () ->
            Sha256.leaves_into (Sha256.init ()) ~prefix (Zkflow_util.Column.of_array arr)
              ~dst:reference ~lo ~hi)
      in
      Bytes.equal live reference && hashed = ref_hashed && c = ref_c)

(* The leaf rule's own entry point and [Tree.of_leaves] on one column:
   the tree's leaf slots are the per-leaf digests. *)
let prop_kernel_leaf_rule =
  QCheck.Test.make ~name:"Proof.leaves_into = leaf_hash per leaf" ~count:100 leaves_case
    (fun (leaves, _, _, _, junk, _) ->
      let col = column_of_case leaves junk in
      let n = Zkflow_util.Column.length col in
      let dst = Bytes.create (32 * n) in
      ignore (Zkflow_merkle.Proof.leaves_into (Sha256.init ()) col ~dst ~lo:0 ~hi:n : int);
      let tree = Zkflow_merkle.Tree.of_leaves ~node:Sha256.node64 col in
      List.for_all
        (fun i ->
          let d = Zkflow_merkle.Proof.leaf_hash (Zkflow_util.Column.leaf col i) in
          Bytes.equal (Bytes.sub dst (32 * i) 32) (Digest32.unsafe_to_bytes d)
          && Digest32.equal d (Zkflow_merkle.Tree.leaf tree i))
        (List.init n Fun.id))

(* The five trace trees of the ingest round (a 16-flow CLog updated
   by two records from each of four routers) and of a query round over
   its CLog, each built twice: by [Tree.of_leaves] through the batch
   kernels, and slot by slot through the per-leaf and per-node
   reference loops above, in the tree's layout (the leaf level padded
   with the empty leaf, then each parent level). Every slot, the slots
   hashed and the compressions must agree, on whichever kernel is
   live. *)
module Tree = Zkflow_merkle.Tree
module Trace = Zkflow_zkvm.Trace

let hashed_nodes = Zkflow_obs.Metric.counter "merkle.nodes_hashed"

let reference_tree rule col =
  let n = Zkflow_util.Column.length col in
  let p = Tree.next_pow2 n in
  let buf = Bytes.create (32 * ((2 * p) - 1)) in
  let leaves, _ =
    leaves_per_leaf ~prefix:(Bytes.of_string "zkflow.lf.v1") col ~dst:buf ~lo:0 ~hi:n
  in
  for i = n to p - 1 do
    Bytes.blit (Digest32.unsafe_to_bytes Tree.empty_leaf) 0 buf (32 * i) 32
  done;
  let hashed = ref leaves and src = ref 0 and width = ref p in
  while !width > 1 do
    let dst = !src + !width in
    hashed := !hashed + level_per_node rule buf ~src:!src ~dst ~lo:0 ~hi:(!width / 2);
    src := dst;
    width := !width / 2
  done;
  (buf, !hashed)

let trace_columns ~program (run : Zkflow_zkvm.Machine.result) =
  let open Zkflow_zkproof in
  let rows = run.Zkflow_zkvm.Machine.rows and memlog = run.Zkflow_zkvm.Machine.memlog in
  let entries = Trace.encode_log memlog in
  let perm = Result.get_ok (Memcheck.sort_perm memlog) in
  let chain = ref Chain.genesis in
  let jacc =
    Array.init (Trace.n_rows rows) (fun i ->
        chain := Checker.jacc_step ~program !chain rows i;
        Digest32.to_bytes (Chain.head !chain))
  in
  let rng = Zkflow_util.Rng.create 17L in
  let alpha = Zkflow_field.Fp2.random rng and beta = Zkflow_field.Fp2.random rng in
  [
    ("rows", Trace.encode_rows rows);
    ("time", Logleaf.pack entries);
    ("sorted", Logleaf.gather entries perm);
    ("jacc", Zkflow_util.Column.of_array jacc);
    ("z", Logleaf.pack (Memcheck.z_leaves ~alpha ~beta memlog perm));
  ]

let trace_rounds =
  lazy
    (let module Core = Zkflow_core in
     let module Gen = Zkflow_netflow.Gen in
     let rng = Zkflow_util.Rng.create 5L in
     let flows = Gen.flows rng { Gen.default_profile with flow_count = 16 } in
     let window router_id keys =
       let records =
         Array.of_list
           (List.map
              (fun k ->
                Zkflow_netflow.Record.make ~key:flows.(k) ~first_ts:1000
                  ~last_ts:(1001 + Zkflow_util.Rng.int rng 900) ~router_id
                  {
                    Zkflow_netflow.Record.packets = 1 + Zkflow_util.Rng.int rng 1000;
                    bytes = 64 + Zkflow_util.Rng.int rng 100_000;
                    hop_count = 1 + Zkflow_util.Rng.int rng 8;
                    losses = Zkflow_util.Rng.int rng 4;
                  })
              keys)
       in
       (Zkflow_netflow.Export.batch_hash records, records)
     in
     let first = List.init 4 (fun r -> window r (List.filter (fun k -> k mod 4 = r) (List.init 16 Fun.id))) in
     let prev = (Result.get_ok (Core.Aggregate.prove_round ~prev:Core.Clog.empty first)).Core.Aggregate.clog in
     let second = List.init 4 (fun r -> window r [ Zkflow_util.Rng.int rng 16; Zkflow_util.Rng.int rng 16 ]) in
     [
       ( "ingest",
         Lazy.force Core.Guests.aggregation_program,
         Result.get_ok (Core.Aggregate.execute ~prev second) );
       ( "query",
         Lazy.force Core.Guests.query_program,
         Result.get_ok (Core.Query.execute ~clog:prev Core.Query.flow_count) );
     ])

let test_trace_trees () =
  let rule = Zkflow_zkproof.Receipt.node in
  List.iter
    (fun (round, program, run) ->
      List.iter
        (fun (name, col) ->
          let what s = Printf.sprintf "%s %s: %s" round name s in
          let (tree, hashed), c =
            counted (fun () ->
                let h0 = Zkflow_obs.Metric.value hashed_nodes in
                let tree = Tree.of_leaves ~node:rule col in
                (tree, Zkflow_obs.Metric.value hashed_nodes - h0))
          in
          let (buf, ref_hashed), ref_c = counted (fun () -> reference_tree rule col) in
          let off = ref 0 in
          for level = 0 to Tree.depth tree do
            let width = 1 lsl (Tree.depth tree - level) in
            for i = 0 to width - 1 do
              if
                not
                  (Bytes.equal
                     (Digest32.unsafe_to_bytes (Tree.node tree ~level i))
                     (Bytes.sub buf (32 * (!off + i)) 32))
              then Alcotest.failf "%s slot %d of level %d differs" (what "") i level
            done;
            off := !off + width
          done;
          check_int (what "slots hashed") ref_hashed hashed;
          check_int (what "compressions") ref_c c;
          check_bool (what "some slots hashed") true (hashed > 0))
        (trace_columns ~program run))
    (Lazy.force trace_rounds)

(* A refused window raises before any slot is written or any
   compression counted, on either kernel. *)
let test_kernel_refusals () =
  let refuses what error f buf =
    let before = Bytes.copy buf in
    let (), c = counted (fun () -> Alcotest.check_raises what error f) in
    Alcotest.(check int) (what ^ ": nothing counted") 0 c;
    check_bool (what ^ ": nothing written") true (Bytes.equal buf before)
  in
  let level_error = Invalid_argument "Sha256.level_into: window out of range or overlapping" in
  (* 12 slots: children at 0..7 and parents at 8..11 fit exactly. *)
  let buf = Bytes.init (32 * 12) (fun k -> Char.chr (k land 0xff)) in
  let level what ~src ~dst ~lo ~hi =
    refuses ("level " ^ what) level_error
      (fun () -> ignore (Sha256.level_into Sha256.node64 (Sha256.init ()) buf ~src ~dst ~lo ~hi))
      buf
  in
  level "negative lo" ~src:0 ~dst:8 ~lo:(-1) ~hi:4;
  level "hi below lo" ~src:0 ~dst:8 ~lo:3 ~hi:2;
  level "negative src" ~src:(-2) ~dst:8 ~lo:1 ~hi:4;
  level "negative dst" ~src:0 ~dst:(-1) ~lo:1 ~hi:4;
  level "children past the end" ~src:5 ~dst:0 ~lo:0 ~hi:4;
  level "parents past the end" ~src:0 ~dst:9 ~lo:0 ~hi:4;
  level "huge src" ~src:max_int ~dst:8 ~lo:0 ~hi:1;
  level "huge dst" ~src:0 ~dst:max_int ~lo:0 ~hi:1;
  level "huge hi" ~src:0 ~dst:8 ~lo:0 ~hi:max_int;
  level "parents over children" ~src:0 ~dst:0 ~lo:0 ~hi:4;
  level "last parent on a child" ~src:4 ~dst:1 ~lo:0 ~hi:4;
  level "first parent on a child" ~src:0 ~dst:7 ~lo:0 ~hi:4;
  (* the same level, just in range and apart, is accepted *)
  check_int "level accepted" 4
    (Sha256.level_into Sha256.node64 (Sha256.init ()) buf ~src:0 ~dst:8 ~lo:0 ~hi:4);
  check_int "empty window over its own children" 0
    (Sha256.level_into Sha256.node64 (Sha256.init ()) buf ~src:0 ~dst:0 ~lo:2 ~hi:2);
  let leaves_error = Invalid_argument "Sha256.leaves_into: window out of range or overlapping"
  and past = Invalid_argument "Sha256.leaves_into: offsets past the buffer"
  and decrease = Invalid_argument "Sha256.leaves_into: offsets decrease" in
  let prefix = Bytes.of_string "tag" and dst = Bytes.make (32 * 4) 'd' in
  (* four leaves of 0, 1, 2 and 3 bytes *)
  let col = Zkflow_util.Column.of_array (Array.init 4 (fun i -> Bytes.make i 'x')) in
  let with_off off = { col with Zkflow_util.Column.off } in
  let leaves what ?(error = leaves_error) ?(prefix = prefix) ?(col = col) ~dst ~lo ~hi () =
    refuses ("leaves " ^ what) error
      (fun () -> ignore (Sha256.leaves_into (Sha256.init ()) ~prefix col ~dst ~lo ~hi))
      dst
  in
  leaves "negative lo" ~dst ~lo:(-1) ~hi:2 ();
  leaves "hi below lo" ~dst ~lo:2 ~hi:1 ();
  leaves "hi past the leaves" ~dst ~lo:0 ~hi:5 ();
  leaves "hi past the slots" ~dst:(Bytes.make 95 'd') ~lo:0 ~hi:3 ();
  leaves "huge hi" ~dst ~lo:0 ~hi:max_int ();
  leaves "slots over the prefix" ~prefix:dst ~dst ~lo:0 ~hi:1 ();
  leaves "slots over the payload" ~col:{ col with data = dst } ~dst ~lo:0 ~hi:1 ();
  leaves "negative first offset" ~error:past ~col:(with_off [| -1; 0; 1; 3; 6 |]) ~dst ~lo:0
    ~hi:4 ();
  leaves "last offset past the payload" ~error:past ~col:(with_off [| 0; 0; 1; 3; 7 |]) ~dst
    ~lo:0 ~hi:4 ();
  leaves "offsets decrease" ~error:decrease ~col:(with_off [| 0; 2; 1; 3; 6 |]) ~dst ~lo:0
    ~hi:4 ();
  leaves "a huge offset inside the window" ~error:decrease
    ~col:(with_off [| 0; max_int; 1; 3; 6 |]) ~dst ~lo:0 ~hi:4 ();
  (* offsets outside the window are not read *)
  check_int "leaves accepted" 2
    (Sha256.leaves_into (Sha256.init ()) ~prefix (with_off [| 9; 0; 1; 3; -5 |]) ~dst ~lo:1
       ~hi:3);
  let array_error =
    Invalid_argument "Sha256.leaves_array_into: window out of range or overlapping"
  in
  let arr = Array.init 4 (fun i -> Bytes.make i 'x') in
  let array what ?(prefix = prefix) ?(arr = arr) ~dst ~lo ~hi () =
    refuses ("leaves array " ^ what) array_error
      (fun () -> ignore (Sha256.leaves_array_into (Sha256.init ()) ~prefix arr ~dst ~lo ~hi))
      dst
  in
  array "negative lo" ~dst ~lo:(-1) ~hi:2 ();
  array "hi below lo" ~dst ~lo:2 ~hi:1 ();
  array "hi past the leaves" ~dst ~lo:0 ~hi:5 ();
  array "hi past the slots" ~dst:(Bytes.make 95 'd') ~lo:0 ~hi:3 ();
  array "huge hi" ~dst ~lo:0 ~hi:max_int ();
  array "slots over the prefix" ~prefix:dst ~dst ~lo:0 ~hi:1 ();
  array "slots over a leaf" ~arr:[| Bytes.empty; dst |] ~dst ~lo:0 ~hi:1 ();
  check_int "leaves array accepted" 2
    (Sha256.leaves_array_into (Sha256.init ()) ~prefix arr ~dst ~lo:1 ~hi:3)

(* ---- Fiat–Shamir transcript ----

   The transcript bytes are part of every receipt's challenges, so a
   change to how they are absorbed or drawn must leave them exact:
   one run over each kind of absorb and draw, pinned as hex. Seal v4
   re-based them once, when the ratchet after each draw became one
   compression: the first draw is the same, every later one moved. *)

let test_transcript_golden () =
  let t = Transcript.create ~domain:"zkflow.transcript.golden" in
  let ints label ~bound ~count =
    String.concat ";"
      (Array.to_list
         (Array.map string_of_int (Transcript.challenge_ints t ~label ~bound ~count)))
  in
  Transcript.absorb_bytes t ~label:"empty" Bytes.empty;
  Transcript.absorb_bytes t ~label:"block" (Bytes.init 100 (fun i -> Char.chr ((i * 7) land 0xff)));
  Transcript.absorb_digest t ~label:"digest" (Digest32.hash_string "zkflow");
  Transcript.absorb_int t ~label:"int" 1_000_003;
  Transcript.absorb_int t ~label:"zero" 0;
  Transcript.absorb_bytes t ~label:(String.make 70 'L') (Bytes.of_string "long label");
  check_string "challenge_digest"
    "f648fa46bc08ab2c46ccf8cfae657f09bbb3168bbcf44d285396aa8df66ed502"
    (Digest32.to_hex (Transcript.challenge_digest t ~label:"alpha"));
  check_string "challenge_ints" "4096;2153;1681;1898;2324;1174;4233;3720;2245;1843;1238;239"
    (ints "step" ~bound:6219 ~count:12);
  check_int "challenge_int" 1 (Transcript.challenge_int t ~label:"one" ~bound:3);
  (* about half of the 63-bit draws are rejected under this bound *)
  check_string "challenge_ints, rejection"
    "1501196184286538925;1788717186979416550;1478262793934570904;1541626942761389774;\
     302874977120250123;1592349484315811325"
    (ints "reject" ~bound:((max_int / 2) + 2) ~count:6);
  check_string "state after the draws"
    "bf02d728148ce03fe861a4088418a0b78fb104cb1af099007524122a92b6c8cb"
    (Digest32.to_hex (Transcript.challenge_digest t ~label:"final"))

(* ---- HMAC-SHA256: RFC 4231 vectors ---- *)

let test_hmac_rfc4231_case1 () =
  let key = Bytes.make 20 '\x0b' in
  check_string "case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.mac ~key (Bytes.of_string "Hi There")))

let test_hmac_rfc4231_case2 () =
  let key = Bytes.of_string "Jefe" in
  check_string "case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Hmac.mac ~key (Bytes.of_string "what do ya want for nothing?")))

let test_hmac_rfc4231_case3 () =
  let key = Bytes.make 20 '\xaa' in
  let msg = Bytes.make 50 '\xdd' in
  check_string "case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Hmac.mac ~key msg))

let test_hmac_rfc4231_case6_long_key () =
  let key = Bytes.make 131 '\xaa' in
  check_string "case 6 (key > block)"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Hmac.mac ~key
          (Bytes.of_string "Test Using Larger Than Block-Size Key - Hash Key First")))

let test_hmac_verify () =
  let key = Bytes.of_string "k" and msg = Bytes.of_string "m" in
  let tag = Hmac.mac ~key msg in
  check_bool "accepts" true (Hmac.verify ~key msg ~tag);
  let bad = Bytes.copy tag in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 1));
  check_bool "rejects flipped bit" false (Hmac.verify ~key msg ~tag:bad);
  check_bool "rejects wrong key" false
    (Hmac.verify ~key:(Bytes.of_string "K") msg ~tag)

let test_hmac_mac_concat () =
  let key = Bytes.of_string "key" in
  let whole = Hmac.mac ~key (Bytes.of_string "ab") in
  let parts = Hmac.mac_concat ~key [ Bytes.of_string "a"; Bytes.of_string "b" ] in
  check_string "concat" (hex whole) (hex parts)

let test_hmac_expand () =
  let key = Bytes.of_string "seed" in
  let a = Hmac.expand ~key ~info:"ctx" 100 in
  let b = Hmac.expand ~key ~info:"ctx" 100 in
  check_string "deterministic" (hex a) (hex b);
  Alcotest.(check int) "length" 100 (Bytes.length a);
  let c = Hmac.expand ~key ~info:"other" 100 in
  check_bool "info separates" false (Bytes.equal a c);
  (* Prefix property of counter-mode expansion. *)
  let short = Hmac.expand ~key ~info:"ctx" 32 in
  check_string "prefix" (hex short) (hex (Bytes.sub a 0 32))

(* ---- Digest32 ---- *)

let test_digest_of_bytes_copy () =
  let raw = Bytes.make 32 'x' in
  let d = Digest32.of_bytes raw in
  Bytes.set raw 0 'y';
  check_string "copied on construction" (String.make 64 '7' |> fun _ -> Digest32.to_hex d)
    (Digest32.to_hex (Digest32.of_bytes (Bytes.make 32 'x')))

let test_digest_wrong_len () =
  Alcotest.check_raises "31 bytes"
    (Invalid_argument "Digest32.of_bytes: need 32 bytes") (fun () ->
      ignore (Digest32.of_bytes (Bytes.create 31)))

let test_digest_hex_roundtrip () =
  let d = Digest32.hash_string "hello" in
  check_bool "roundtrip" true (Digest32.equal d (Digest32.of_hex (Digest32.to_hex d)))

let test_digest_combine_is_sha_of_concat () =
  let l = Digest32.hash_string "l" and r = Digest32.hash_string "r" in
  let expected =
    Sha256.digest_concat [ Digest32.to_bytes l; Digest32.to_bytes r ]
  in
  check_string "combine" (hex expected) (Digest32.to_hex (Digest32.combine l r))

let test_digest_order () =
  let a = Digest32.of_bytes (Bytes.make 32 '\x00')
  and b = Digest32.of_bytes (Bytes.make 32 '\x01') in
  check_bool "a < b" true (Digest32.compare a b < 0);
  check_bool "b > a" true (Digest32.compare b a > 0);
  check_bool "a = a" true (Digest32.compare a a = 0);
  check_bool "zero is smallest" true (Digest32.compare Digest32.zero a <= 0)

let test_digest_short () =
  let d = Digest32.hash_string "x" in
  Alcotest.(check int) "8 chars" 8 (String.length (Digest32.short d));
  check_bool "prefix" true
    (String.length (Digest32.to_hex d) = 64
    && String.sub (Digest32.to_hex d) 0 8 = Digest32.short d)

(* ---- Chain ---- *)

let test_chain_order_sensitive () =
  let ab = Chain.of_list [ Bytes.of_string "a"; Bytes.of_string "b" ] in
  let ba = Chain.of_list [ Bytes.of_string "b"; Bytes.of_string "a" ] in
  check_bool "order matters" false (Chain.equal ab ba)

let test_chain_no_concat_ambiguity () =
  (* ["ab"] and ["a"; "b"] must differ: each link is a fresh hash. *)
  let one = Chain.of_list [ Bytes.of_string "ab" ] in
  let two = Chain.of_list [ Bytes.of_string "a"; Bytes.of_string "b" ] in
  check_bool "no ambiguity" false (Chain.equal one two)

let test_chain_resume () =
  let full = Chain.of_list [ Bytes.of_string "a"; Bytes.of_string "b" ] in
  let partial = Chain.of_list [ Bytes.of_string "a" ] in
  let resumed = Chain.extend (Chain.of_digest (Chain.head partial)) (Bytes.of_string "b") in
  check_bool "resumable" true (Chain.equal full resumed)

let test_chain_genesis_distinct () =
  check_bool "genesis differs from one-element chain" false
    (Chain.equal Chain.genesis (Chain.of_list [ Bytes.empty ]))

let prop_chain_injective_on_prefix =
  QCheck.Test.make ~name:"extending changes head" ~count:200
    QCheck.(string_of_size Gen.(0 -- 32))
    (fun s ->
      let c = Chain.of_list [ Bytes.of_string "base" ] in
      not (Chain.equal c (Chain.extend c (Bytes.of_string s))))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Printf.printf "sha256 kernel: %s\n%!" Sha256.kernel;
  Alcotest.run "zkflow_hash"
    [
      ( "sha256",
        [
          Alcotest.test_case "empty" `Quick test_sha_empty;
          Alcotest.test_case "abc" `Quick test_sha_abc;
          Alcotest.test_case "448-bit" `Quick test_sha_448bit;
          Alcotest.test_case "896-bit" `Quick test_sha_896bit;
          Alcotest.test_case "million a" `Quick test_sha_million_a;
          Alcotest.test_case "streaming = one-shot" `Quick test_sha_streaming_equals_oneshot;
          Alcotest.test_case "finalize once" `Quick test_sha_finalize_once;
          Alcotest.test_case "update_sub bounds" `Quick test_sha_update_sub_bounds;
          Alcotest.test_case "digest_concat" `Quick test_sha_digest_concat;
          q prop_sha_streaming;
          Alcotest.test_case "padding boundaries" `Quick test_sha_padding_boundaries;
        ] );
      ( "digest64",
        [
          Alcotest.test_case "node_iv" `Quick test_node_iv;
          Alcotest.test_case "known answer" `Quick test_digest64_known_answer;
          Alcotest.test_case "bounds" `Quick test_digest64_bounds;
          Alcotest.test_case "ctx is working storage" `Quick test_digest64_reuses_finalized_ctx;
          q prop_digest64_matches_digest_sub;
          q prop_node64_is_one_compression;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "reference known answers" `Quick test_reference_known_answers;
          on_hardware (q prop_kernel_block);
          on_hardware (q prop_kernel_offsets);
          on_hardware (q prop_kernel_digest64_overlap);
          on_hardware (q prop_kernel_node64_overlap);
          on_hardware (q prop_kernel_level);
          on_hardware (q prop_kernel_leaves);
          q prop_kernel_leaves_array;
          q prop_kernel_leaf_rule;
          Alcotest.test_case "trace trees = reference loops" `Quick test_trace_trees;
          Alcotest.test_case "batch windows refused" `Quick test_kernel_refusals;
        ] );
      ( "hmac",
        [
          Alcotest.test_case "rfc4231 case1" `Quick test_hmac_rfc4231_case1;
          Alcotest.test_case "rfc4231 case2" `Quick test_hmac_rfc4231_case2;
          Alcotest.test_case "rfc4231 case3" `Quick test_hmac_rfc4231_case3;
          Alcotest.test_case "rfc4231 case6" `Quick test_hmac_rfc4231_case6_long_key;
          Alcotest.test_case "verify" `Quick test_hmac_verify;
          Alcotest.test_case "mac_concat" `Quick test_hmac_mac_concat;
          Alcotest.test_case "expand" `Quick test_hmac_expand;
        ] );
      ("fs", [ Alcotest.test_case "transcript golden" `Quick test_transcript_golden ]);
      ( "digest32",
        [
          Alcotest.test_case "of_bytes copies" `Quick test_digest_of_bytes_copy;
          Alcotest.test_case "wrong length" `Quick test_digest_wrong_len;
          Alcotest.test_case "hex roundtrip" `Quick test_digest_hex_roundtrip;
          Alcotest.test_case "combine rule" `Quick test_digest_combine_is_sha_of_concat;
          Alcotest.test_case "ordering" `Quick test_digest_order;
          Alcotest.test_case "short form" `Quick test_digest_short;
        ] );
      ( "chain",
        [
          Alcotest.test_case "order sensitive" `Quick test_chain_order_sensitive;
          Alcotest.test_case "no concat ambiguity" `Quick test_chain_no_concat_ambiguity;
          Alcotest.test_case "resume" `Quick test_chain_resume;
          Alcotest.test_case "genesis distinct" `Quick test_chain_genesis_distinct;
          q prop_chain_injective_on_prefix;
        ] );
    ]
