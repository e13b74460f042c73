module Isa = Zkflow_zkvm.Isa

let mask32 = 0xffffffff
let w32 = 0x100000000

(* An abstract unsigned 32-bit value: an interval [lo, hi] (no
   wrap-around representation — a wrapped set widens to the full range)
   refined by a power-of-two congruence x ≡ residue (mod modulus).

   [modulus] = 0 encodes an exact value ([residue]); [modulus] = 1 is
   the trivial congruence. Moduli are kept to powers of two dividing
   2^32 so the congruence survives the machine's mod-2^32 wrap-around:
   masking subtracts a multiple of 2^32, which every power-of-two
   modulus divides. That is exactly the stride shape word-indexed
   telemetry loads produce (base + i*8). *)
type t = { lo : int; hi : int; modulus : int; residue : int }

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Stand-in modulus for "exact" when doing gcd arithmetic. *)
let mstand m = if m = 0 then w32 else m

let pow2_part m = if m = 0 then 0 else m land -m

(* Congruence from raw (modulus, residue); modulus may be any
   non-negative int, residue any int. *)
let cong_make m r =
  let m = pow2_part m in
  if m = 0 || m >= w32 then (0, ((r mod w32) + w32) mod w32 land mask32)
  else if m <= 1 then (1, 0)
  else (m, ((r mod m) + m) mod m)

let cong_join (m1, r1) (m2, r2) =
  let d = abs (r1 - r2) in
  cong_make (gcd (gcd (mstand m1) (mstand m2)) d) r1

(* None = contradictory. Power-of-two moduli are totally ordered by
   divisibility, so the meet keeps the larger modulus after checking
   compatibility against the smaller one. *)
let cong_meet (m1, r1) (m2, r2) =
  let (ml, rl), (ms, rs) =
    if mstand m1 >= mstand m2 then ((m1, r1), (m2, r2)) else ((m2, r2), (m1, r1))
  in
  if ms = 0 then if rl = rs then Some (ml, rl) else None
  else if ms = 1 then Some (ml, rl)
  else if rl mod ms = rs then Some (ml, rl)
  else None

let mulcap a b = if a = 0 || b = 0 then 0 else if a > w32 / b then w32 else a * b

let cong_add (m1, r1) (m2, r2) = cong_make (gcd (mstand m1) (mstand m2)) (r1 + r2)
let cong_sub (m1, r1) (m2, r2) = cong_make (gcd (mstand m1) (mstand m2)) (r1 - r2)

let cong_mul (m1, r1) (m2, r2) =
  let m =
    gcd
      (mulcap (mstand m1) (mstand m2))
      (gcd (mulcap (mstand m1) (if r2 = 0 then w32 else r2))
         (mulcap (mstand m2) (if r1 = 0 then w32 else r1)))
  in
  cong_make m (r1 * r2)


(* [norm] re-establishes the invariants (bounds within the congruence,
   exactness for singletons); [None] means the set is empty. *)
let norm lo hi m r =
  let lo = max 0 lo and hi = min mask32 hi in
  if lo > hi then None
  else
    let m, r = cong_make m r in
    if m = 0 then if r >= lo && r <= hi then Some { lo = r; hi = r; modulus = 0; residue = r } else None
    else
      let lo = if m > 1 then lo + (((r - lo) mod m) + m) mod m else lo in
      let hi = if m > 1 then hi - (((hi - r) mod m) + m) mod m else hi in
      if lo > hi then None
      else if lo = hi then Some { lo; hi; modulus = 0; residue = lo }
      else Some { lo; hi; modulus = m; residue = r }

let top = { lo = 0; hi = mask32; modulus = 1; residue = 0 }

let make lo hi m r = match norm lo hi m r with Some v -> v | None -> top

let const c =
  let c = c land mask32 in
  { lo = c; hi = c; modulus = 0; residue = c }

let range lo hi = make lo hi 1 0
let is_const v = if v.lo = v.hi then Some v.lo else None
let contains v x = x >= v.lo && x <= v.hi && (v.modulus = 0 && x = v.residue
                                             || v.modulus = 1
                                             || (v.modulus > 1 && x mod v.modulus = v.residue))
let equal (a : t) (b : t) = a = b

let join a b =
  let m, r = cong_join (a.modulus, a.residue) (b.modulus, b.residue) in
  make (min a.lo b.lo) (max a.hi b.hi) m r

let meet a b =
  match cong_meet (a.modulus, a.residue) (b.modulus, b.residue) with
  | None -> None
  | Some (m, r) -> norm (max a.lo b.lo) (min a.hi b.hi) m r

(* Widening thresholds: the constants the checks care about (RAM limit,
   the Zirc locals/spill region, small loop bounds, power-of-two
   boundaries). Jumping to the next threshold instead of straight to
   the full range keeps membounds decidable at loop heads while
   guaranteeing termination: chains through this finite set are short. *)
let thresholds =
  [|
    0; 1; 2; 4; 8; 16; 31; 32; 33; 64; 100; 128; 255; 256; 1024; 4096; 65535;
    65536; 0x100000; 0x200000; 0x400000; 0x7fffff; 0x800000; 0x820000;
    0x1000000; 0xfffffff; 0x10000000; 0x3fffffff; 0x40000000; 0x7fffffff;
    0x80000000; 0xffffffff;
  |]

let threshold_below x =
  let best = ref 0 in
  Array.iter (fun t -> if t <= x && t > !best then best := t) thresholds;
  !best

let threshold_above x =
  let best = ref mask32 in
  Array.iter (fun t -> if t >= x && t < !best then best := t) thresholds;
  !best

(* [widen old nw] where [nw] already includes the join with [old]. *)
let widen old nw =
  let lo = if nw.lo >= old.lo then old.lo else threshold_below nw.lo in
  let hi = if nw.hi <= old.hi then old.hi else threshold_above nw.hi in
  make lo hi nw.modulus nw.residue

(* Smallest 2^k - 1 covering x. *)
let up2 x =
  let r = ref 1 in
  while !r - 1 < x do
    r := !r * 2
  done;
  !r - 1

let bool01 = { lo = 0; hi = 1; modulus = 1; residue = 0 }

let add a b =
  let lo = a.lo + b.lo and hi = a.hi + b.hi in
  let cm, cr = cong_add (a.modulus, a.residue) (b.modulus, b.residue) in
  if hi <= mask32 then make lo hi cm cr
  else if lo > mask32 then make (lo - w32) (hi - w32) cm cr
  else make 0 mask32 cm cr

let sub a b =
  let lo = a.lo - b.hi and hi = a.hi - b.lo in
  let cm, cr = cong_sub (a.modulus, a.residue) (b.modulus, b.residue) in
  if lo >= 0 then make lo hi cm cr
  else if hi < 0 then make (lo + w32) (hi + w32) cm cr
  else make 0 mask32 cm cr

let mul a b =
  let cm, cr = cong_mul (a.modulus, a.residue) (b.modulus, b.residue) in
  if b.hi = 0 || a.hi <= mask32 / b.hi then make (a.lo * b.lo) (a.hi * b.hi) cm cr
  else make 0 mask32 cm cr

let sll a b =
  match is_const b with
  | Some s ->
    let s = s land 31 in
    mul a (const (1 lsl s))
  | None -> top

let srl a b =
  match is_const b with
  | Some s ->
    let s = s land 31 in
    if s = 0 then a else range (a.lo lsr s) (a.hi lsr s)
  | None -> range 0 a.hi

let sra a b =
  if a.hi < 0x80000000 then srl a b
  else match is_const b with Some s when s land 31 = 0 -> a | _ -> top

let sltu a b =
  if a.hi < b.lo then const 1 else if a.lo >= b.hi then const 0 else bool01

let slt a b = if a.hi < 0x80000000 && b.hi < 0x80000000 then sltu a b else bool01

let divu a b =
  match is_const b with
  | Some 0 -> const mask32
  | _ ->
    if b.lo >= 1 then range (a.lo / b.hi) (a.hi / b.lo)
    else (* divisor may be 0, pulling the result up to 2^32-1 *) top

let remu a b =
  match is_const b with
  | Some 0 -> a
  | _ ->
    if b.lo >= 1 then if a.hi < b.lo then a else range 0 (b.hi - 1)
    else range 0 (max a.hi (if b.hi > 0 then b.hi - 1 else 0))

let and_ a b = range 0 (min a.hi b.hi)
let or_ a b = range (max a.lo b.lo) (up2 (max a.hi b.hi))
let xor a b = range 0 (up2 (max a.hi b.hi))

let alu op a b =
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Isa.alu_eval op x y)
  | _ -> (
    match (op : Isa.alu) with
    | ADD -> add a b
    | SUB -> sub a b
    | MUL -> mul a b
    | AND -> and_ a b
    | OR -> or_ a b
    | XOR -> xor a b
    | SLL -> sll a b
    | SRL -> srl a b
    | SRA -> sra a b
    | SLT -> slt a b
    | SLTU -> sltu a b
    | DIVU -> divu a b
    | REMU -> remu a b)

(* ---- branch refinement ---- *)

let clamp v ~lo ~hi = norm (max v.lo lo) (min v.hi hi) v.modulus v.residue

let both a b = match (a, b) with Some a, Some b -> Some (a, b) | _ -> None

(* a < b (unsigned). *)
let refine_ltu a b =
  if b.hi = 0 || a.lo = mask32 then None
  else both (clamp a ~lo:0 ~hi:(b.hi - 1)) (clamp b ~lo:(a.lo + 1) ~hi:mask32)

(* a >= b (unsigned). *)
let refine_geu a b =
  both (clamp a ~lo:b.lo ~hi:mask32) (clamp b ~lo:0 ~hi:a.hi)

let refine_eq a b = match meet a b with None -> None | Some m -> Some (m, m)

let chip v c =
  if v.lo = c && v.hi = c then None
  else if v.lo = c then clamp v ~lo:(c + 1) ~hi:mask32
  else if v.hi = c then clamp v ~lo:0 ~hi:(c - 1)
  else Some v

let refine_ne a b =
  match (is_const a, is_const b) with
  | Some x, Some y when x = y -> None
  | _, Some c -> ( match chip a c with None -> None | Some a -> Some (a, b))
  | Some c, _ -> ( match chip b c with None -> None | Some b -> Some (a, b))
  | None, None -> Some (a, b)

let in_signed_range v = v.hi < 0x80000000

(* Refine [(a, b)] under "branch [op] on (a, b) evaluated to [taken]".
   [None] means the edge is infeasible. Signed comparisons only refine
   when both operands provably avoid the sign bit, where they coincide
   with the unsigned ones. *)
let refine_branch op ~taken a b =
  match ((op : Isa.branch), taken) with
  | BEQ, true | BNE, false -> refine_eq a b
  | BEQ, false | BNE, true -> refine_ne a b
  | BLTU, true | BGEU, false -> refine_ltu a b
  | BLTU, false | BGEU, true -> refine_geu a b
  | (BLT | BGE), _ when not (in_signed_range a && in_signed_range b) -> Some (a, b)
  | BLT, true | BGE, false -> refine_ltu a b
  | BLT, false | BGE, true -> refine_geu a b

let pp ppf v =
  if v.lo = v.hi then Format.fprintf ppf "0x%x" v.lo
  else begin
    Format.fprintf ppf "[0x%x, 0x%x]" v.lo v.hi;
    if v.modulus > 1 then Format.fprintf ppf " (≡%d mod %d)" v.residue v.modulus
  end
