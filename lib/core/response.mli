(** Messages arriving at the out-of-band validator.

    Each is one ρ = (id, τ, entry) of Algorithm 1: the reporting
    controller, the trigger it concerns, and a body. Four body kinds
    cover everything §IV-C enumerates:

    - [Execution]: a replica's (primary's or tainted secondary's)
      complete planned response to the trigger;
    - [Cache_update]: one cache event as observed at the reporting node
      (the origin's own write, or a replication ack from a peer);
    - [Network_write]: an intercepted outgoing FLOW_MOD;
    - [Write_failure]: a cache write the controller attempted but the
      store refused (e.g. "failed to obtain lock"). *)

module Types = Jury_controller.Types

type body =
  | Execution of { role : [ `Primary | `Secondary ]; actions : Types.action list }
  | Cache_update of Jury_store.Event.t
  | Network_write of {
      dpid : Jury_openflow.Of_types.Dpid.t;
      flow : Jury_openflow.Of_message.flow_mod;
    }
  | Write_failure of { action : Types.action; reason : string }

type t = {
  controller : int;           (** reporting node *)
  taint : Types.Taint.t;      (** τ *)
  snapshot : Snapshot.t;      (** reporter's state when it responded *)
  sent_at : Jury_sim.Time.t;
  term : int;
      (** leadership term at send time ([0] when election is disabled
          — see {!Jury_controller.Cluster.current_term}) *)
  body : body;
}

val taint_key : t -> string
(** The stable string form of [taint] — the key the validator's pending
    table hashes on. *)

val body_name : body -> string
(** Short stable label: ["execution"], ["status"], ["decap"] or
    ["write-failure"]. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering: reporter, taint, body kind. *)
