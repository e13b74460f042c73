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
