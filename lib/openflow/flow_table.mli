(** A switch's flow table: priority-ordered rules with OF 1.0
    add/modify/delete semantics, idle/hard timeouts and per-flow
    counters. *)

type entry = {
  rule : Of_match.t;
  priority : int;
  cookie : Of_types.cookie;
  actions : Of_action.t list;
  idle_timeout : int;
  hard_timeout : int;
  installed_at : Jury_sim.Time.t;
  mutable last_hit : Jury_sim.Time.t;
  mutable packet_count : int64;
  mutable byte_count : int64;
  mutable marked : bool;
      (** Internal removal scratch bit (lets bulk removal run in one
          pass without identity sets); always [false] outside
          {!apply_flow_mod}/{!expire}. Do not touch. *)
}

type t

val create : ?lenient:bool -> unit -> t
(** [lenient] switches on the OF 1.0-switch behaviour of silently
    installing hierarchy-violating matches with the offending fields
    wildcarded (see {!Of_match.strip_invalid_fields}) — the substrate
    for the paper's "ODL incorrect FLOW_MOD" T3 fault. Default
    [false]: such FLOW_MODs are rejected. *)

type apply_result =
  | Installed
  | Modified of int  (** number of entries whose actions changed *)
  | Removed of entry list
  | Rejected of string

val apply_flow_mod : t -> now:Jury_sim.Time.t -> Of_message.flow_mod -> apply_result

val lookup : t -> now:Jury_sim.Time.t -> in_port:Of_types.Port.t
  -> Jury_packet.Frame.t -> entry option
(** Highest-priority matching live entry; bumps its counters. Ties on
    priority resolve to the earliest-installed entry. *)

val expire : t -> now:Jury_sim.Time.t -> entry list
(** Removes and returns entries whose idle/hard timeout has passed. *)

val entries : t -> entry list
(** Live entries, highest priority first. *)

val size : t -> int

val has_expirable : t -> bool
(** Does any entry carry a non-zero idle/hard timeout? Drives the
    switch's lazy expiry sweep. *)

val clear : t -> unit

val find_exact : t -> Of_match.t -> priority:int -> entry option

val pp : Format.formatter -> t -> unit

(** Exposed for tests only: the packed two-word exact-index key. It is
    a lossy fingerprint; test_par checks it against the string key it
    replaced: (1) both classify exactly the same matches as indexable
    and (2) string-key equality implies packed-key equality — bucket
    *verification* (not the key) guarantees the reverse direction can
    only cost performance, never correctness. *)
module Private : sig
  val packed_key_of_match : Of_match.t -> (int * int) option
  val packed_key_of_frame :
    in_port:Of_types.Port.t -> Jury_packet.Frame.t -> int * int
end
