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
    ({!Receipt.check_claim}), every Merkle opening authenticates under
    {!Receipt.node}, the Fiat–Shamir
    challenges reproduce the opened positions, every opened step
    re-executes correctly, the memory argument holds at the opened
    positions, and the boundary conditions (entry at pc 0, halt with
    the claimed exit code, journal accumulator ending at the claimed
    journal) all hold. *)

val check : program:Zkflow_zkvm.Program.t -> Receipt.t -> bool
(** [verify] as a boolean. *)
