module D = Zkflow_hash.Digest32
module T = Zkflow_hash.Transcript
module Fp2 = Zkflow_field.Fp2

type challenges = {
  alpha : Fp2.t;
  beta : Fp2.t;
  step_idx : int array;
  sorted_idx : int array;
  zt_idx : int array;
  zs_idx : int array;
}

let derive ~(claim : Receipt.claim) ~journal ~queries ~n_rows ~n_mem ~root_rows
    ~root_time ~root_sorted ~root_jacc ~commit_z =
  let t = T.create ~domain:"zkflow.zkvm.receipt.v2" in
  T.absorb_digest t ~label:"image" claim.Receipt.image_id;
  T.absorb_int t ~label:"exit" claim.Receipt.exit_code;
  T.absorb_digest t ~label:"journal" journal;
  T.absorb_int t ~label:"queries" queries;
  T.absorb_int t ~label:"n_rows" n_rows;
  T.absorb_int t ~label:"n_mem" n_mem;
  T.absorb_digest t ~label:"rows" root_rows;
  T.absorb_digest t ~label:"time" root_time;
  T.absorb_digest t ~label:"sorted" root_sorted;
  T.absorb_digest t ~label:"jacc" root_jacc;
  let alpha = Fp2.of_digest_prefix (D.unsafe_to_bytes (T.challenge_digest t ~label:"alpha")) in
  let beta = Fp2.of_digest_prefix (D.unsafe_to_bytes (T.challenge_digest t ~label:"beta")) in
  let root_z = commit_z ~alpha ~beta in
  T.absorb_digest t ~label:"z" root_z;
  let sample label bound =
    if bound <= 0 then [||] else T.challenge_ints t ~label ~bound ~count:queries
  in
  ( {
      alpha;
      beta;
      step_idx = sample "step" (n_rows - 1);
      sorted_idx = sample "sorted" (n_mem - 1);
      zt_idx = sample "z_time" (n_mem - 1);
      zs_idx = sample "z_sorted" (n_mem - 1);
    },
    root_z )

type opened = { rows : int array; time : int array; sorted : int array; z : int array }

(* Ascending order of an int array, in place: a bottom-up merge sort
   over ints, so a comparison is one machine compare and no closure
   call. *)
let sort_ints (a : int array) =
  let n = Array.length a in
  let src = ref a and dst = ref (Array.make n 0) and width = ref 1 in
  while !width < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min (!lo + !width) n and hi = Int.min (!lo + (2 * !width)) n in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || s.(!i) <= s.(!j)) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  if !src != a then Array.blit !src 0 a 0 n

let sorted a =
  let a = Array.copy a in
  sort_ints a;
  a

(* The union of ascending parts, ascending and each value once, in one
   output array: a part [(a, d)] stands for the values [a.(i) + d], so
   a set and its successors share one sorted array. *)
let union parts =
  let arrays = Array.of_list (List.map fst parts) and deltas = Array.of_list (List.map snd parts) in
  let heads = Array.make (Array.length arrays) 0 in
  let total = Array.fold_left (fun n a -> n + Array.length a) 0 arrays in
  let out = Array.make total 0 and n = ref 0 in
  for _ = 1 to total do
    let best = ref (-1) and least = ref 0 in
    for p = 0 to Array.length arrays - 1 do
      let a = arrays.(p) and h = heads.(p) in
      if h < Array.length a then begin
        let v = a.(h) + deltas.(p) in
        if !best < 0 || v < !least then begin
          best := p;
          least := v
        end
      end
    done;
    heads.(!best) <- heads.(!best) + 1;
    if !n = 0 || out.(!n - 1) <> !least then begin
      out.(!n) <- !least;
      incr n
    end
  done;
  Array.sub out 0 !n

let rows_opened ~n_rows c =
  let steps = sorted c.step_idx in
  union [ ([| 0; n_rows - 1 |], 0); (steps, 0); (steps, 1) ]

(* Every log entry the spans own, ascending. *)
let accesses spans =
  let a = Array.make (Array.fold_left (fun n (_, count) -> n + count) 0 spans) 0 in
  let k = ref 0 in
  Array.iter
    (fun (pos, count) ->
      for j = pos to pos + count - 1 do
        a.(!k) <- j;
        incr k
      done)
    spans;
  sort_ints a;
  a

let opened ~n_rows ~n_mem ~spans c =
  let zt = sorted c.zt_idx and zs = sorted c.zs_idx and so = sorted c.sorted_idx in
  {
    rows = rows_opened ~n_rows c;
    time = union [ ([| 0 |], 0); (accesses spans, 0); (zt, 1) ];
    sorted = union [ ([| 0 |], 0); (so, 0); (so, 1); (zs, 1) ];
    z = union [ ([| 0; n_mem - 1 |], 0); (zt, 0); (zt, 1); (zs, 0); (zs, 1) ];
  }

(* Top level, so a lookup allocates no closure. *)
let rec search (set : int array) (i : int) lo hi =
  if lo >= hi then raise Not_found
  else
    let mid = (lo + hi) / 2 in
    let v = set.(mid) in
    if v = i then mid else if v < i then search set i (mid + 1) hi else search set i lo mid

let rank set i = search set i 0 (Array.length set)
