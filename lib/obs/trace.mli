(** Causal trace sink: the life of a trigger as structured events.

    JURY's argument is per-trigger: one tainted trigger τ fans out to a
    primary, k secondaries, the store fabric and the out-of-band
    validator. This module records that fan-out as spans (intervals
    with a parent) and points (instants within a span), so a verdict
    can be explained by its trace instead of by printf.

    A trace is a bounded ring buffer; once full, the oldest events are
    overwritten and counted in {!dropped}. Emission is append-only and
    consumes no randomness, so attaching a trace never perturbs a
    deterministic simulation. When the trace is disabled every
    emission returns after a single branch. *)

type span_id = int
(** Unique within one trace; 0 is the ambient scenario scope used by
    {!global_point}. *)

type phase =
  | Trigger  (** root span: the whole life of one tainted trigger *)
  | Intercept  (** trigger delivered to a controller by the replicator *)
  | Replicate  (** replica copy in flight towards a secondary *)
  | Pipeline_service  (** queued + serviced by a controller pipeline *)
  | Cache_write  (** store write / replicated apply *)
  | Net_write  (** message on the wire (FLOW_MOD egress, capture tap) *)
  | Validate  (** response delivered to the out-of-band validator *)
  | Batch
      (** a tick's response batch handed to the validator in one
          call (only emitted when batched ingestion is enabled) *)
  | Verdict  (** the validator's decision *)

val phase_name : phase -> string
val phase_of_name : string -> phase option
val all_phases : phase list

type kind =
  | Open of phase  (** a span begins *)
  | Close  (** the span identified by [span] ends *)
  | Point of phase  (** instantaneous event inside a span *)

val kind_name : kind -> string

type event = {
  t_ns : int;  (** simulated nanoseconds since scenario start *)
  span : span_id;
  parent : span_id option;
  node : int option;  (** controller/store node id, when applicable *)
  kind : kind;
  attrs : (string * string) list;
}

type t

val create : ?capacity:int -> ?enabled:bool -> unit -> t
(** [create ()] makes an enabled trace holding up to [capacity]
    (default 65536) events. *)

val null : unit -> t
(** A tiny disabled trace; the default sink so emission sites never
    need an option. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit
val capacity : t -> int
val length : t -> int
val dropped : t -> int
(** Events overwritten because the ring was full. *)

val clear : t -> unit
(** Drops all events and forgets open spans. *)

val events : t -> event list
(** Oldest first; emission order, so [t_ns] is non-decreasing. *)

val open_root : t -> t_ns:int -> taint:string -> ?node:int ->
  (string * string) list -> span_id
(** Opens the root span for taint τ (kind [Open Trigger]); subsequent
    taint-keyed emissions attach to it. Returns 0 when disabled. *)

val root_of : t -> taint:string -> span_id option
(** The still-open root span for τ, if any. *)

val open_child : t -> t_ns:int -> taint:string -> phase:phase ->
  ?node:int -> (string * string) list -> span_id option
(** Opens a child span under τ's root; [None] when disabled or when no
    root is open for τ (e.g. internal taints that were never
    intercepted). *)

val close_span : t -> t_ns:int -> span_id -> (string * string) list -> unit
(** Emits [Close] for the span; a no-op for unknown or stale ids. *)

val close_root : t -> t_ns:int -> taint:string -> (string * string) list -> unit
(** Closes τ's root span and forgets the taint. *)

val point : t -> t_ns:int -> taint:string -> phase:phase -> ?node:int ->
  (string * string) list -> unit
(** Instantaneous event attached to τ's root span; dropped when no
    root is open. *)

val global_point : t -> t_ns:int -> phase:phase -> ?node:int ->
  (string * string) list -> unit
(** Instantaneous event in the ambient scope (span 0): data-plane taps
    and other emissions that cannot name a taint. *)

val taint_of : event -> string option
(** The ["taint"] attribute, stamped on every taint-keyed event. *)
