module Trace = Zkflow_zkvm.Trace
module F = Zkflow_field.Babybear
module Fp2 = Zkflow_field.Fp2

let sort entries =
  let copy = Array.copy entries in
  Array.sort Trace.mem_order copy;
  copy

let sort_with_perm entries =
  let n = Array.length entries in
  let perm = Array.init n (fun i -> i) in
  (* Tie-break by original index: mem_order can compare byte-identical
     entries equal, and the permutation must still be deterministic so
     the sorted commitment can reuse the time-ordered leaf hashes. *)
  Array.sort
    (fun i j ->
      let c = Trace.mem_order entries.(i) entries.(j) in
      if c <> 0 then c else Int.compare i j)
    perm;
  (Array.map (fun i -> entries.(i)) perm, perm)

let term ~alpha ~beta (e : Trace.mem_entry) =
  let lo = e.value land 0xffff and hi = e.value lsr 16 in
  let fingerprint =
    (* addr + β·time + β²·lo + β³·hi + β⁴·write, Horner from the top. *)
    let open Fp2 in
    let acc = of_base (if e.write then F.one else F.zero) in
    let acc = add (mul acc beta) (of_base (F.of_int hi)) in
    let acc = add (mul acc beta) (of_base (F.of_int lo)) in
    let acc = add (mul acc beta) (of_base (F.of_int e.time)) in
    add (mul acc beta) (of_base (F.of_int e.addr))
  in
  Fp2.sub alpha fingerprint

let products ~alpha ~beta entries =
  let acc = ref Fp2.one in
  Array.map
    (fun e ->
      acc := Fp2.mul !acc (term ~alpha ~beta e);
      !acc)
    entries

let encode_z ~time ~sorted = Bytes.cat (Fp2.to_bytes time) (Fp2.to_bytes sorted)

let decode_z b =
  if Bytes.length b <> 16 then Error "z leaf: wrong length"
  else
    match (Fp2.of_bytes (Bytes.sub b 0 8), Fp2.of_bytes (Bytes.sub b 8 8)) with
    | Ok time, Ok sorted -> Ok (time, sorted)
    | Error e, _ | _, Error e -> Error e

let check_first (e : Trace.mem_entry) =
  if (not e.write) && e.value <> 0 then
    Error "memcheck: first access of the log is a non-zero read"
  else Ok ()

let check_adjacent (e1 : Trace.mem_entry) (e2 : Trace.mem_entry) =
  if Trace.mem_order e1 e2 > 0 then Error "memcheck: sorted log out of order"
  else if e2.write then Ok ()
  else if e2.addr = e1.addr then
    if e2.value = e1.value then Ok ()
    else Error "memcheck: read does not match previous value"
  else if e2.value = 0 then Ok ()
  else Error "memcheck: first read of an address must see 0"
