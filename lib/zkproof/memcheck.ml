module Trace = Zkflow_zkvm.Trace
module F = Zkflow_field.Babybear
module Fp2 = Zkflow_field.Fp2

(* ---- the sorted order ---- *)

let sort_perm log =
  match Trace.address_order log with
  | perm, None -> Ok perm
  | _, Some (a, b) ->
    Error
      (Printf.sprintf
         "memcheck: access log entries %d and %d (address %d) are not in \
          (time, read-before-write) order"
         a b (Trace.mem_at log b).addr)

(* ---- the grand products ---- *)

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

(* [p] and ν as literals: ocamlopt turns [x mod p] into a multiply and a
   shift only for a divisor it can see, and this library is compiled
   against the field's interface alone. *)
let p = 2013265921
let nu = 11
let () = assert (p = F.p && nu = Fp2.non_residue)

let[@inline] reduce x =
  let r = x mod p in
  if r < 0 then r + p else r

let[@inline] sub a b =
  let d = a - b in
  if d < 0 then d + p else d

(* The fingerprint term α − f(e) of an entry, as unboxed coordinates:
   c0 of entry i at [2i], c1 at [2i + 1]. Equal to [term ~alpha ~beta
   e] for any entry, given β's powers. Every coordinate is reduced
   first. In each sum only the lo and hi products stay unreduced:
   hi·β³ < p² < 2^62 and the other terms add less than 2^48, so with
   p < 2^31 the sum fits in 63 bits. *)
let powers beta =
  let b2 = Fp2.mul beta beta in
  let b3 = Fp2.mul b2 beta in
  (b2, b3, Fp2.mul b3 beta)

let[@inline] term_into t i ~(alpha : Fp2.t) ~(beta : Fp2.t) ~(b2 : Fp2.t) ~(b3 : Fp2.t)
    ~(b4 : Fp2.t) ~addr ~time ~write ~value =
  let addr = reduce addr and time = reduce time in
  let lo = value land 0xffff and hi = reduce (value lsr 16) in
  let f0 =
    (addr + (time * beta.c0 mod p) + (lo * b2.c0) + (hi * b3.c0) + (write * b4.c0)) mod p
  in
  let f1 = ((time * beta.c1 mod p) + (lo * b2.c1) + (hi * b3.c1) + (write * b4.c1)) mod p in
  t.(2 * i) <- sub alpha.c0 f0;
  t.((2 * i) + 1) <- sub alpha.c1 f1

(* An entry a machine can log (an address and a time below p, a
   32-bit value, a write flag of 0 or 1) needs no reduction before
   its sums: time·β < p² and the other products add less than 2^49,
   so each coordinate is one sum and one [mod p]. Any other entry
   takes [term_into]. The log is read chunk by chunk, with no call per
   entry. *)
let terms_of_ints ~alpha ~beta log =
  let b2, b3, b4 = powers beta in
  let t = Array.make (2 * Trace.n_entries log) 0 in
  let a0 = alpha.Fp2.c0 and a1 = alpha.Fp2.c1 in
  let be0 = beta.Fp2.c0 and be1 = beta.Fp2.c1 and b20 = b2.Fp2.c0 and b21 = b2.Fp2.c1 in
  let b30 = b3.Fp2.c0 and b31 = b3.Fp2.c1 and b40 = b4.Fp2.c0 and b41 = b4.Fp2.c1 in
  Trace.iter_log_chunks log (fun c first count ->
      for k = 0 to count - 1 do
        let addr = Array.unsafe_get c (4 * k) and time = Array.unsafe_get c ((4 * k) + 1) in
        let write = Array.unsafe_get c ((4 * k) + 2) and value = Array.unsafe_get c ((4 * k) + 3) in
        let i = first + k in
        if addr >= 0 && addr < p && time >= 0 && time < p && value lsr 32 = 0 && write lsr 1 = 0
        then begin
          let lo = value land 0xffff and hi = value lsr 16 in
          let f0 = (addr + (time * be0) + (lo * b20) + (hi * b30) + (write * b40)) mod p in
          let f1 = ((time * be1) + (lo * b21) + (hi * b31) + (write * b41)) mod p in
          Array.unsafe_set t (2 * i) (sub a0 f0);
          Array.unsafe_set t ((2 * i) + 1) (sub a1 f1)
        end
        else term_into t i ~alpha ~beta ~b2 ~b3 ~b4 ~addr ~time ~write ~value
      done);
  t

(* One step z · t of a grand product, coordinate by coordinate, every
   input below p: each sum keeps one unreduced product, below p², plus
   at most ν·p, which fits in 63 bits. *)
let[@inline] mul_c0 z0 z1 t0 t1 = ((z0 * t0) + (nu * (z1 * t1 mod p))) mod p
let[@inline] mul_c1 z0 z1 t0 t1 = ((z0 * t1 mod p) + (z1 * t0)) mod p

let link_holds ~z0 ~z1 ~t0 ~t1 ~next0 ~next1 =
  next0 = mul_c0 z0 z1 t0 t1 && next1 = mul_c1 z0 z1 t0 t1

let z_bytes = 16

(* Both grand products over the terms: the time product in log order,
   the sorted one through [perm], each entry written in the [encode_z]
   layout at its own 16 bytes of one column. The two products are
   independent, so each runs in the other's multiply latency. *)
let z_leaves ~alpha ~beta log perm =
  let n = Trace.n_entries log in
  if Array.length perm <> n then
    invalid_arg "Memcheck.z_leaves: perm and log lengths differ";
  let t = terms_of_ints ~alpha ~beta log in
  let b = Bytes.create (z_bytes * n) in
  let zt0 = ref 1 and zt1 = ref 0 and zs0 = ref 1 and zs1 = ref 0 in
  for j = 0 to n - 1 do
    let t0 = Array.unsafe_get t (2 * j) and t1 = Array.unsafe_get t ((2 * j) + 1) in
    let z0 = !zt0 and z1 = !zt1 in
    zt0 := mul_c0 z0 z1 t0 t1;
    zt1 := mul_c1 z0 z1 t0 t1;
    let k = perm.(j) in
    let t0 = t.(2 * k) and t1 = t.((2 * k) + 1) in
    let z0 = !zs0 and z1 = !zs1 in
    zs0 := mul_c0 z0 z1 t0 t1;
    zs1 := mul_c1 z0 z1 t0 t1;
    let at = z_bytes * j in
    Bytes.set_int32_le b at (Int32.of_int !zt0);
    Bytes.set_int32_le b (at + 4) (Int32.of_int !zt1);
    Bytes.set_int32_le b (at + 8) (Int32.of_int !zs0);
    Bytes.set_int32_le b (at + 12) (Int32.of_int !zs1)
  done;
  { Zkflow_util.Column.data = b; off = Array.init (n + 1) (fun j -> z_bytes * j) }

let encode_z ~time ~sorted = Bytes.cat (Fp2.to_bytes time) (Fp2.to_bytes sorted)

(* The four coordinates read in place, each refused unless canonical,
   as [Fp2.of_bytes] refuses it. *)
let decode_z_at b off dst r =
  let canonical = ref true in
  for c = 0 to 3 do
    let v = Int32.to_int (Bytes.get_int32_le b (off + (4 * c))) in
    if v < 0 || v >= p then canonical := false;
    dst.((4 * r) + c) <- v
  done;
  if !canonical then Ok () else Error "fp2: not canonical"

let decode_z b =
  let c = Array.make 4 0 in
  if Bytes.length b <> z_bytes then Error "z leaf: wrong length"
  else
    match decode_z_at b 0 c 0 with
    | Ok () -> Ok ({ Fp2.c0 = c.(0); c1 = c.(1) }, { Fp2.c0 = c.(2); c1 = c.(3) })
    | Error e -> Error e

(* ---- the verifier's local rules ---- *)

let check_time ~n_rows (e : Trace.mem_entry) =
  if 0 <= e.time && e.time < n_rows then Ok ()
  else
    Error
      (Printf.sprintf "memcheck: access time %d outside the trace (n_rows %d)" e.time
         n_rows)

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
