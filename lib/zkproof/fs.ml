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

let derive ~(claim : Receipt.claim) ~queries ~n_rows ~n_mem ~root_rows
    ~root_time ~root_sorted ~root_jacc ~commit_z =
  let t = T.create ~domain:"zkflow.zkvm.receipt.v2" in
  T.absorb_digest t ~label:"image" claim.Receipt.image_id;
  T.absorb_int t ~label:"exit" claim.Receipt.exit_code;
  T.absorb_digest t ~label:"journal" (Receipt.journal_digest claim);
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

let ascending parts =
  let a = Array.concat parts in
  Array.sort Int.compare a;
  let n = ref 0 in
  Array.iteri
    (fun k i ->
      if k = 0 || i <> a.(!n - 1) then begin
        a.(!n) <- i;
        incr n
      end)
    a;
  Array.sub a 0 !n

let succ_all = Array.map succ

let rows_opened ~n_rows c = ascending [ [| 0; n_rows - 1 |]; c.step_idx; succ_all c.step_idx ]

let opened ~n_rows ~n_mem ~spans c =
  let accesses =
    Array.concat (Array.to_list (Array.map (fun (pos, count) -> Array.init count (( + ) pos)) spans))
  in
  {
    rows = rows_opened ~n_rows c;
    time = ascending [ [| 0 |]; accesses; succ_all c.zt_idx ];
    sorted = ascending [ [| 0 |]; c.sorted_idx; succ_all c.sorted_idx; succ_all c.zs_idx ];
    z =
      ascending
        [ [| 0; n_mem - 1 |]; c.zt_idx; succ_all c.zt_idx; c.zs_idx; succ_all c.zs_idx ];
  }

let rank set i =
  let rec go lo hi =
    if lo >= hi then raise Not_found
    else
      let mid = (lo + hi) / 2 in
      let v = set.(mid) in
      if v = i then mid else if v < i then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length set)
