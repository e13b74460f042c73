(* The host-call protocol in one place: numbers, argument registers,
   and the information-flow role of each call. The machine, the static
   analyzer, and the taint pass all read this table, so "which ecall is
   an input source / a journal sink" cannot drift between them. *)

type t =
  | Halt         (* 0: a1 = exit code; terminates *)
  | Read_word    (* 1: a0 := next input word (router export) *)
  | Commit       (* 2: append a1 to the journal *)
  | Sha          (* 3: a1 = src, a2 = word count, a3 = dst *)
  | Debug        (* 4: host-side debug print of a1 *)
  | Input_avail  (* 5: a0 := remaining input words *)
  | Read_block   (* 6: a1 = dst, a2 = count: next count input words to RAM *)
  | Commit_block (* 7: a1 = src, a2 = count: count RAM words to the journal *)

let of_number = function
  | 0 -> Some Halt
  | 1 -> Some Read_word
  | 2 -> Some Commit
  | 3 -> Some Sha
  | 4 -> Some Debug
  | 5 -> Some Input_avail
  | 6 -> Some Read_block
  | 7 -> Some Commit_block
  | _ -> None

let number = function
  | Halt -> 0
  | Read_word -> 1
  | Commit -> 2
  | Sha -> 3
  | Debug -> 4
  | Input_avail -> 5
  | Read_block -> 6
  | Commit_block -> 7

let max_number = 7

let name = function
  | Halt -> "halt"
  | Read_word -> "read_word"
  | Commit -> "commit"
  | Sha -> "sha"
  | Debug -> "debug"
  | Input_avail -> "input_avail"
  | Read_block -> "read_block"
  | Commit_block -> "commit_block"

(* A block call moves 1..8 words per trace row, as a SHA block row
   hashes 16: the row's aux carries them, so an opened row stays
   inside the seal's per-column leaf bound. *)
let max_block = 8
let block = function Read_block | Commit_block -> true | _ -> false

(* Registers the call reads (beyond a0, the call number). *)
let arg_regs = function
  | Halt -> [ 11 ]
  | Read_word | Input_avail -> []
  | Commit | Debug -> [ 11 ]
  | Sha -> [ 11; 12; 13 ]
  | Read_block | Commit_block -> [ 11; 12 ]

(* Registers the call writes. *)
let result_regs = function
  | Read_word | Input_avail -> [ 10 ]
  | Halt | Commit | Sha | Debug | Read_block | Commit_block -> []

(* Taint roles: a source introduces untrusted router-export data into
   the guest; a journal sink publishes guest data into the receipt's
   journal, which downstream verifiers treat as authenticated. *)
let reads_input = function Read_word | Input_avail | Read_block -> true | _ -> false
let writes_journal = function Commit | Commit_block -> true | _ -> false
