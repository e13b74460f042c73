(** The 5-tuple flow key: the identity NetFlow aggregates by and the
    Merkle/CLog key of the verifiable-telemetry pipeline. *)

type t = {
  src_ip : Ipaddr.t;
  dst_ip : Ipaddr.t;
  src_port : int; (** 0–65535 *)
  dst_port : int;
  proto : int;    (** IP protocol number, 0–255 *)
}

val make :
  src_ip:Ipaddr.t -> dst_ip:Ipaddr.t -> src_port:int -> dst_port:int ->
  proto:int -> t
(** Validates field ranges. *)

val compare : t -> t -> int
(** Total order (the canonical CLog ordering). *)

val equal : t -> t -> bool

val word_size : int
(** 4 — the number of 32-bit words in the guest encoding. *)

val to_words : t -> int array
(** Guest layout: [| src_ip; dst_ip; (src_port << 16) | dst_port;
    proto |]. *)

val of_words : int array -> (t, string) result

val to_bytes : t -> bytes
(** 16 bytes: the words big-endian — the byte form hashed by routers
    and by the zkVM guest alike. *)

val hash : t -> Zkflow_hash.Digest32.t
(** SHA-256 of [to_bytes]; the sharded aggregation partitions records
    by it. *)

val pp : Format.formatter -> t -> unit
