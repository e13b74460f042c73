(** Receipt verification.

    Cost is O(queries · log(cycles)) hashing — independent of the
    original input size, which is what makes client-side verification
    constant-milliseconds in Figure 4 regardless of how many NetFlow
    entries the aggregation touched.

    The verifier needs the guest {!Zkflow_zkvm.Program.t} (guest code
    is public; only inputs are private) and checks it against the
    claim's image ID before re-executing any opened step. *)

val verify :
  program:Zkflow_zkvm.Program.t -> Receipt.t -> (unit, string) result
(** [Ok ()] iff the claim's exit code and journal words are 32-bit
    ({!Receipt.check_claim}), every column opens exactly the leaves its
    Fiat–Shamir index set names ({!Fs.opened}) with exactly the helper
    count that set implies (both checked before any hashing), each
    column's multiproof reaches its root under {!Receipt.node}, every
    opened step re-executes correctly, the memory argument holds at the
    opened positions, and the boundary conditions (entry at pc 0, halt
    with the claimed exit code, journal accumulator ending at the
    claimed journal) all hold. The first failure is returned as a
    named error. *)

val check : program:Zkflow_zkvm.Program.t -> Receipt.t -> bool
(** [verify] as a boolean. *)
