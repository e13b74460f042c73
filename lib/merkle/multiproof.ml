module D = Zkflow_hash.Digest32
module Sha256 = Zkflow_hash.Sha256
module Varint = Zkflow_util.Varint

type node = Sha256.node
type t = { depth : int; indices : int array; helpers : bytes }

let rec depth_of_size n = if n <= 1 then 0 else 1 + depth_of_size (n - (n / 2))

(* A usable index set is non-empty, strictly ascending and inside the
   padded tree; from depth [Sys.int_size - 1] up every int fits. *)
let check_indices ~depth indices =
  let fits i = i >= 0 && (depth >= Sys.int_size - 1 || i < 1 lsl depth) in
  let rec go j =
    if j = Array.length indices then Ok ()
    else if not (fits indices.(j)) then Error "multiproof: index out of range"
    else if j > 0 && indices.(j) = indices.(j - 1) then Error "multiproof: duplicate indices"
    else if j > 0 && indices.(j) < indices.(j - 1) then
      Error "multiproof: indices not ascending"
    else go (j + 1)
  in
  if Array.length indices = 0 then Error "multiproof: empty index set"
  else if depth < 0 || depth > 64 then Error "multiproof: implausible depth"
  else go 0

(* The climb from the leaves, as the prover walks it. [pos] holds the
   known positions of one level, strictly ascending, and is overwritten
   level by level with their parents'. For each parent, in ascending
   order, [visit ~level s m paired] is called: the known child at rank
   [s] of the level has its sibling at rank [s + 1] when [paired], and
   takes the next helper otherwise; the parent takes rank [m ≤ s] of
   the level above. The count and the verifier's climb below walk the
   same way, written out so a node costs no closure call. *)
let climb ~depth pos visit =
  let k = ref (Array.length pos) in
  for level = 0 to depth - 1 do
    let s = ref 0 and m = ref 0 in
    while !s < !k do
      let i = pos.(!s) in
      let paired = i land 1 = 0 && !s + 1 < !k && pos.(!s + 1) = i + 1 in
      visit ~level !s !m paired;
      pos.(!m) <- i lsr 1;
      incr m;
      s := !s + if paired then 2 else 1
    done;
    k := !m
  done

(* A known node without its sibling takes one helper. *)
let count_helpers ~depth indices =
  let pos = Array.copy indices and k = ref (Array.length indices) and n = ref 0 in
  for _ = 1 to depth do
    let s = ref 0 and m = ref 0 in
    while !s < !k do
      let i = pos.(!s) in
      if i land 1 = 0 && !s + 1 < !k && pos.(!s + 1) = i + 1 then s := !s + 2
      else begin
        incr n;
        incr s
      end;
      pos.(!m) <- i lsr 1;
      incr m
    done;
    k := !m
  done;
  !n

type shape = { levels : int; set : int array; need : int }

let shape ~depth indices =
  match check_indices ~depth indices with
  | Ok () -> Ok { levels = depth; set = indices; need = count_helpers ~depth indices }
  | Error e -> Error e

let shape_helpers s = s.need

let helper_count ~depth indices =
  match shape ~depth indices with
  | Ok s -> s.need
  | Error e -> invalid_arg ("Multiproof.helper_count: " ^ e)

let prove tree indices =
  if Array.length indices = 0 then invalid_arg "Multiproof.prove: empty index set";
  Array.iteri
    (fun j i ->
      if i < 0 || i >= Tree.size tree then invalid_arg "Multiproof.prove: index out of range";
      if j > 0 && i = indices.(j - 1) then invalid_arg "Multiproof.prove: duplicate indices";
      if j > 0 && i < indices.(j - 1) then invalid_arg "Multiproof.prove: indices not ascending")
    indices;
  let depth = Tree.depth tree in
  let helpers = Bytes.create (32 * count_helpers ~depth indices) in
  let pos = Array.copy indices and h = ref 0 in
  climb ~depth pos (fun ~level s _ paired ->
      if not paired then begin
        Tree.blit_node tree ~level (pos.(s) lxor 1) helpers (32 * !h);
        incr h
      end);
  { depth; indices = Array.copy indices; helpers }

(* 32 bytes from [src] at [i] to [dst] at [j], as four 8-byte moves:
   no C call for one slot. *)
let[@inline] copy32 src i dst j =
  Bytes.set_int64_ne dst j (Bytes.get_int64_ne src i);
  Bytes.set_int64_ne dst (j + 8) (Bytes.get_int64_ne src (i + 8));
  Bytes.set_int64_ne dst (j + 16) (Bytes.get_int64_ne src (i + 16));
  Bytes.set_int64_ne dst (j + 24) (Bytes.get_int64_ne src (i + 24))

(* One work buffer of 32-byte slots: slots [0, k) hold a level's known
   nodes, the leaf digests first, and slots [k, 3k) the 64-byte inputs
   of its parents, each known node laid beside its sibling (the next
   known node or the next helper). One batch-kernel call per level then
   hashes the inputs into slots [0, m), the known nodes of the level
   above. *)
let root_of_shape ~node s ~helpers work =
  let k = Array.length s.set in
  if Bytes.length work < 32 * 3 * k then
    Error
      (Printf.sprintf "multiproof: %d work bytes for %d indices" (Bytes.length work) k)
  else if Bytes.length helpers <> 32 * s.need then
    Error
      (Printf.sprintf "multiproof: %d helper bytes where the index set needs %d helpers"
         (Bytes.length helpers) s.need)
  else begin
    let w = work and ctx = Sha256.init () in
    let pos = Array.copy s.set and h = ref 0 and n = ref k in
    for _ = 1 to s.levels do
      let r = ref 0 and m = ref 0 in
      while !r < !n do
        let i = pos.(!r) and input = 32 * (k + (2 * !m)) in
        if i land 1 = 0 && !r + 1 < !n && pos.(!r + 1) = i + 1 then begin
          copy32 w (32 * !r) w input;
          copy32 w (32 * (!r + 1)) w (input + 32);
          r := !r + 2
        end
        else begin
          (* an odd position is the right child: the helper goes left *)
          let side = 32 * (i land 1) in
          copy32 w (32 * !r) w (input + side);
          copy32 helpers (32 * !h) w (input + 32 - side);
          incr h;
          incr r
        end;
        pos.(!m) <- i lsr 1;
        incr m
      done;
      ignore (Sha256.level_into node ctx w ~src:k ~dst:0 ~lo:0 ~hi:!m : int);
      n := !m
    done;
    Ok (D.of_bytes (Bytes.sub w 0 32))
  end

let compute_root ~node t leaves =
  match shape ~depth:t.depth t.indices with
  | Error e -> Error e
  | Ok s ->
    let k = Array.length t.indices in
    if Bytes.length leaves <> 32 * k then
      Error (Printf.sprintf "multiproof: %d leaf bytes for %d indices" (Bytes.length leaves) k)
    else begin
      let work = Bytes.create (32 * 3 * k) in
      Bytes.blit leaves 0 work 0 (32 * k);
      root_of_shape ~node s ~helpers:t.helpers work
    end

let verify ~node ~root t leaves =
  match compute_root ~node t leaves with Ok r -> D.equal r root | Error _ -> false

let leaf_digests ds = Bytes.concat Bytes.empty (List.map D.unsafe_to_bytes ds)

let encode t =
  let buf = Buffer.create (16 + (4 * Array.length t.indices) + Bytes.length t.helpers) in
  Varint.write buf t.depth;
  Varint.write buf (Array.length t.indices);
  Array.iter (Varint.write buf) t.indices;
  Varint.write buf (Bytes.length t.helpers / 32);
  Buffer.add_bytes buf t.helpers;
  Buffer.to_bytes buf

let decode b off =
  match
    let depth, off = Varint.read b off in
    let n, off = Varint.read b off in
    if depth > 64 || n > Bytes.length b - off then Error "multiproof: implausible sizes"
    else begin
      let indices = Array.make n 0 and off = ref off in
      for j = 0 to n - 1 do
        let v, next = Varint.read b !off in
        indices.(j) <- v;
        off := next
      done;
      let hn, off = Varint.read b !off in
      if hn > n * depth then Error "multiproof: more helpers than indices × depth"
      else if off + (32 * hn) > Bytes.length b then Error "multiproof: truncated"
      else Ok ({ depth; indices; helpers = Bytes.sub b off (32 * hn) }, off + (32 * hn))
    end
  with
  | result -> result
  | exception Invalid_argument msg -> Error msg
