(** Binary wire codec for OpenFlow 1.0 messages.

    The simulator's control channels carry these bytes, so replication,
    encapsulation (ODL's PACKET_IN-in-PACKET_IN) and the validator's
    byte accounting all operate on realistic message sizes. The framing
    follows the OF 1.0 header (version 0x01, type, length, xid); match
    and action encodings follow the spec's fixed layouts. *)

val encode : Of_message.t -> string

val decode : string -> Of_message.t
(** Raises {!Wire_buf.Truncated} (re-exported from [Jury_packet]) or
    [Invalid_argument] on malformed input; a header whose length field
    is below {!header_size} raises [Invalid_argument
    "Of_wire: bad length N"]. *)

val decode_all : string -> Of_message.t list
(** Splits a byte stream into consecutive messages using the length
    field — how a TCP control channel is deframed. Raises like
    {!decode}. *)

val header_size : int
(** 8 bytes. *)

val encoded_size : Of_message.t -> int
