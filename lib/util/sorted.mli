(** Small helpers over sorted arrays. No library module calls them
    yet; only their tests do. *)

val is_sorted : cmp:('a -> 'a -> int) -> 'a array -> bool
(** [is_sorted ~cmp a] is [true] when [a] is non-decreasing under
    [cmp]. *)

val bsearch : cmp:('a -> 'a -> int) -> 'a array -> 'a -> int option
(** [bsearch ~cmp a key] is the index of some element equal to [key]
    under [cmp], or [None]. [a] must be sorted. *)

val lower_bound : cmp:('a -> 'a -> int) -> 'a array -> 'a -> int
(** [lower_bound ~cmp a key] is the first index whose element is [>=]
    [key] (equals [Array.length a] when all are smaller). *)

val merge_uniq : cmp:('a -> 'a -> int) -> combine:('a -> 'a -> 'a) ->
  'a array -> 'a array -> 'a array
(** [merge_uniq ~cmp ~combine a b] merges two sorted arrays; elements
    comparing equal are fused with [combine] (left argument from [a]).
    Each input must itself be duplicate-free. *)
