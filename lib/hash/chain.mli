(** Hash chains: a running digest over an ordered sequence of items.

    Routers use a chain per commitment window so that a window's
    commitment binds both the content and the order of its records
    (Section 3 of the paper: periodic per-router commitments). *)

type t
(** A chain state. The initial state is [genesis]. *)

val genesis : t
(** The empty chain (domain-separated from any real link). *)

val of_digest : Digest32.t -> t
(** [of_digest d] resumes a chain from a previously exported head. *)

val extend : t -> bytes -> t
(** [extend t item] appends an item: the new head is
    [SHA256("zkflow.chain" ‖ head ‖ item)]. *)

val extend_digest : t -> Digest32.t -> t
(** [extend_digest t d] appends a digest-valued item. *)

val extend_words : t -> int array -> t
(** [extend_words t words] appends one item per word, the low 32 bits
    of the word as 4 big-endian bytes: the fold of {!extend} over those
    items, computed in one buffer through one context, so the links
    allocate nothing. *)

val head : t -> Digest32.t
(** [head t] is the current chain head. *)

val of_list : bytes list -> t
(** [of_list items] folds [extend] over [items] from [genesis]. *)

val equal : t -> t -> bool
(** Head equality. *)
