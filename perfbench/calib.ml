(* Host-speed calibration kernel.

   On a shared VM the prover's hash-heavy code flips between speed
   states up to twice as fast or slow, for a fraction of a second to
   minutes at a time, while the program stays the same. The harness
   runs this fixed SHA-256 workload next to every op and between set-up
   stages and scales each end-to-end timing by [reference_s / kernel
   time], so a phase that slows the prover and the kernel alike
   cancels out.

   The kernel is the benchmark's own code, not the program's: a change
   to the program never moves it, and it does not touch the program's
   counters. It has the shape of the program's SHA-256 hot loop (int32
   rounds, an int32 message schedule), the code the phases move most. *)

let k =
  [|
    0x428a2f98l; 0x71374491l; 0xb5c0fbcfl; 0xe9b5dba5l; 0x3956c25bl; 0x59f111f1l;
    0x923f82a4l; 0xab1c5ed5l; 0xd807aa98l; 0x12835b01l; 0x243185bel; 0x550c7dc3l;
    0x72be5d74l; 0x80deb1fel; 0x9bdc06a7l; 0xc19bf174l; 0xe49b69c1l; 0xefbe4786l;
    0x0fc19dc6l; 0x240ca1ccl; 0x2de92c6fl; 0x4a7484aal; 0x5cb0a9dcl; 0x76f988dal;
    0x983e5152l; 0xa831c66dl; 0xb00327c8l; 0xbf597fc7l; 0xc6e00bf3l; 0xd5a79147l;
    0x06ca6351l; 0x14292967l; 0x27b70a85l; 0x2e1b2138l; 0x4d2c6dfcl; 0x53380d13l;
    0x650a7354l; 0x766a0abbl; 0x81c2c92el; 0x92722c85l; 0xa2bfe8a1l; 0xa81a664bl;
    0xc24b8b70l; 0xc76c51a3l; 0xd192e819l; 0xd6990624l; 0xf40e3585l; 0x106aa070l;
    0x19a4c116l; 0x1e376c08l; 0x2748774cl; 0x34b0bcb5l; 0x391c0cb3l; 0x4ed8aa4al;
    0x5b9cca4fl; 0x682e6ff3l; 0x748f82eel; 0x78a5636fl; 0x84c87814l; 0x8cc70208l;
    0x90befffal; 0xa4506cebl; 0xbef9a3f7l; 0xc67178f2l;
  |]

let rotr x n = Int32.logor (Int32.shift_right_logical x n) (Int32.shift_left x (32 - n))

let compress h w src pos =
  for i = 0 to 15 do
    w.(i) <- Bytes.get_int32_be src (pos + (4 * i))
  done;
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let s0 = Int32.logxor (rotr x 7) (Int32.logxor (rotr x 18) (Int32.shift_right_logical x 3)) in
    let s1 = Int32.logxor (rotr y 17) (Int32.logxor (rotr y 19) (Int32.shift_right_logical y 10)) in
    w.(i) <- Int32.add (Int32.add w.(i - 16) s0) (Int32.add w.(i - 7) s1)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = Int32.logxor (rotr !e 6) (Int32.logxor (rotr !e 11) (rotr !e 25)) in
    let ch = Int32.logxor (Int32.logand !e !f) (Int32.logand (Int32.lognot !e) !g) in
    let t1 = Int32.add !hh (Int32.add s1 (Int32.add ch (Int32.add k.(i) w.(i)))) in
    let s0 = Int32.logxor (rotr !a 2) (Int32.logxor (rotr !a 13) (rotr !a 22)) in
    let maj =
      Int32.logxor (Int32.logand !a !b) (Int32.logxor (Int32.logand !a !c) (Int32.logand !b !c))
    in
    hh := !g;
    g := !f;
    f := !e;
    e := Int32.add !d t1;
    d := !c;
    c := !b;
    b := !a;
    a := Int32.add t1 (Int32.add s0 maj)
  done;
  let add i v = h.(i) <- Int32.add h.(i) v in
  add 0 !a; add 1 !b; add 2 !c; add 3 !d; add 4 !e; add 5 !f; add 6 !g; add 7 !hh

(* 512 KiB: 8192 compressions, about 13 ms on a 2-vCPU Xeon VM. *)
let buf = Bytes.init (1 lsl 19) (fun i -> Char.chr ((i * 131) land 255))

(* The kernel's time on that VM in its usual speed state: scaled
   timings read as seconds on a host where the kernel takes this long. *)
let reference_s = 0.013

(* Run the kernel once; its wall time in s. *)
let run () =
  let h = [| 0x6a09e667l; 0xbb67ae85l; 0x3c6ef372l; 0xa54ff53al;
             0x510e527fl; 0x9b05688cl; 0x1f83d9abl; 0x5be0cd19l |] in
  let w = Array.make 64 0l in
  let t0 = Zkflow_obs.Clock.now_ns () in
  for blk = 0 to (Bytes.length buf / 64) - 1 do
    compress h w buf (blk * 64)
  done;
  let dt = Zkflow_obs.Clock.now_ns () - t0 in
  ignore (Sys.opaque_identity h);
  float_of_int dt /. 1e9

(* [raw] s measured while the kernel took [kernel_s], scaled to the
   reference host speed. *)
let scale ~kernel_s raw = raw *. reference_s /. kernel_s
